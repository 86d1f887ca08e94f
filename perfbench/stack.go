package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"quaestor/internal/cache"
	"quaestor/internal/client"
	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/wal"
)

// vclock is the virtual caching clock. The load generator advances it by
// a fixed step per operation, so TTLs, expiries and EBF refreshes are a
// function of the seed rather than of machine speed.
type vclock struct{ ns atomic.Int64 }

func newVClock() *vclock {
	c := &vclock{}
	c.ns.Store(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *vclock) Now() time.Time { return time.Unix(0, c.ns.Load()) }

// advance moves the clock forward and returns the new reading in ns.
func (c *vclock) advance(d time.Duration) int64 { return c.ns.Add(int64(d)) }

func (c *vclock) nowNs() int64 { return c.ns.Load() }

// stackConfig selects the topology one workload runs on.
type stackConfig struct {
	sessions int
	durable  bool
	dataDir  string
	shards   int  // 0: server.New over one store; n: server.NewSharded over n shards
	uncached bool // server.ModeUncached, sessions without cache and EBF
	trace    bool
}

// loader is the part of store.Store and cluster.Router the data load uses.
type loader interface {
	CreateTable(name string) error
	CreateIndex(table, path string) error
	Insert(table string, doc *document.Document) error
}

// stack is the assembled system: sessions → CDN tier → origin server →
// store or shard router, with the server's HTTP API on loopback TCP.
type stack struct {
	cfg      stackConfig
	clk      *vclock
	ins      *instruments
	db       *store.Store
	router   *cluster.Router
	srv      *server.Server
	cdn      *cache.HTTPTier
	hs       *http.Server
	served   chan struct{}
	tr       *http.Transport
	sessions []*session
}

// session is one SDK client with its own browser cache and EBF.
type session struct {
	c  *client.Client
	rt *sessionTransport
}

// runFsync is the WAL flush policy of the durable workload's timed phase:
// every write is logged, the committer fsyncs at least every 25 ms, and a
// write is acknowledged once it is queued to the committer. With
// fsync=always on the disk that holds the benchmark's checkout, the fsync
// on every acknowledgement made write_p90_us range 640–1789 µs over three
// identical runs; with this policy 432–441 µs.
const runFsync = wal.FsyncInterval

func storeOptions(cfg stackConfig, fsync wal.FsyncPolicy) store.Options {
	o := store.Options{}
	if cfg.durable {
		o.DataDir = cfg.dataDir
		o.Durability = store.Durability{Fsync: fsync}
	}
	return o
}

// openStack opens the data plane, lets load fill it, then starts the
// server, the CDN tier, the listener and the sessions.
func openStack(cfg stackConfig, load func(loader) error) (_ *stack, err error) {
	s := &stack{cfg: cfg, clk: newVClock()}
	s.ins = newInstruments(cfg.trace, s.clk)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	// A durable data plane is bulk-loaded without per-write fsync, closed,
	// and reopened: the reopen is the recovery a restart would do.
	if err = s.openData(wal.FsyncNever); err != nil {
		return nil, err
	}
	if err = load(s.data()); err != nil {
		return nil, err
	}
	if cfg.durable {
		s.closeData()
		if err = s.openData(runFsync); err != nil {
			return nil, fmt.Errorf("reopening the durable store: %w", err)
		}
	}

	opts := &server.Options{Clock: s.clk.Now}
	if cfg.uncached {
		// Nothing is cached in this mode, so no caching clock is in play;
		// the wall clock keeps the per-plan latency histograms meaningful.
		opts = &server.Options{Mode: server.ModeUncached}
	}
	if s.router != nil {
		s.srv = server.NewSharded(s.router, opts)
	} else {
		s.srv = server.New(s.db, opts)
	}

	s.cdn = &cache.HTTPTier{
		Name:     "cdn",
		Upstream: s.ins.wrapOrigin(s.srv.Handler()),
		Cache:    cache.New(cache.InvalidationBased, 0, s.clk.Now),
		Clock:    s.clk.Now,
	}
	s.srv.AddPurger(server.PurgerFunc(func(path string) {
		s.ins.purged(path)
		s.cdn.Cache.Purge(path)
	}))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s.ins.wrapCDN(s.cdn), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln)
	}()

	// No per-host connection cap: a sharded server makes the SDK fetch
	// the shard map while the first response still holds its connection.
	s.tr = &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
	base := "http://" + ln.Addr().String()
	for i := 0; i < cfg.sessions; i++ {
		rt := &sessionTransport{in: s.ins, base: s.tr}
		c, err := client.Dial(&client.Options{
			BaseURL:         base,
			Transport:       rt,
			Clock:           s.clk.Now,
			RefreshInterval: delta,
			DisableCache:    cfg.uncached,
			DisableEBF:      cfg.uncached,
		})
		if err != nil {
			return nil, fmt.Errorf("dialing session %d: %w", i, err)
		}
		s.sessions = append(s.sessions, &session{c: c, rt: rt})
	}
	return s, nil
}

func ptr[T any](v T) *T { return &v }

// openData opens the store, or the shard router over one store per
// shard, with the given flush policy.
func (s *stack) openData(fsync wal.FsyncPolicy) (err error) {
	if s.cfg.shards > 0 {
		s.router, err = cluster.Open(cluster.Options{Shards: s.cfg.shards, Store: storeOptions(s.cfg, fsync)})
		return err
	}
	s.db, err = store.Open(ptr(storeOptions(s.cfg, fsync)))
	return err
}

func (s *stack) closeData() {
	if s.db != nil {
		s.db.Close()
		s.db = nil
	}
	if s.router != nil {
		s.router.Close()
		s.router = nil
	}
}

// data is what the load fills: the store or the router.
func (s *stack) data() loader {
	if s.router != nil {
		return s.router
	}
	return s.db
}

// get reads a record straight from the data plane.
func (s *stack) get(table, id string) (*document.Document, error) {
	if s.router != nil {
		return s.router.Get(table, id)
	}
	return s.db.Get(table, id)
}

// stopServing shuts the HTTP side and the server down, leaving the store
// open.
func (s *stack) stopServing() {
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	if s.hs != nil {
		_ = s.hs.Close()
		<-s.served
		s.hs = nil
	}
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
}

// close tears everything down and removes the data directory.
func (s *stack) close() {
	s.stopServing()
	s.closeData()
	if s.cfg.durable && s.cfg.dataDir != "" {
		_ = os.RemoveAll(s.cfg.dataDir)
	}
}

// stores lists the store of every shard (one when unsharded).
func (s *stack) stores() []*store.Store {
	if s.router != nil {
		return s.router.Stores()
	}
	return []*store.Store{s.db}
}

// quiesce waits until InvaliDB has matched every write and the server has
// taken in every notification it emitted, so purges and EBF reports for
// all acknowledged writes are done.
func (s *stack) quiesce() error {
	inv := s.srv.InvaliDB()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if inv.Quiesce(time.Until(deadline)) {
			_, notified := inv.Stats()
			if s.srv.Stats().Invalidations >= notified {
				// The notification loop reports to the EBF and purges
				// right after counting; give that iteration time to end.
				time.Sleep(2 * time.Millisecond)
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("InvaliDB did not quiesce within 20s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
