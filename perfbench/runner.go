package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/store"
)

// kindCount is the attempted/failed tally of one operation kind.
type kindCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// worker tallies a set of operations: counts per kind, latencies per
// class and per kind, and the first errors.
type worker struct {
	lat     [nClasses]latencies
	kindLat map[string]*latencies
	counts  map[string]*kindCount
	errs    []string
	// unexpected counts check failures other than the known fault the
	// read-your-writes probe shows.
	unexpected int
}

func newWorker() *worker {
	return &worker{kindLat: map[string]*latencies{}, counts: map[string]*kindCount{}}
}

func (w *worker) kindLatencies(kind string) *latencies {
	l := w.kindLat[kind]
	if l == nil {
		l = &latencies{}
		w.kindLat[kind] = l
	}
	return l
}

const keepErrors = 5

func (w *worker) note(kind string, err error) {
	if len(w.errs) < keepErrors {
		w.errs = append(w.errs, kind+": "+err.Error())
	}
}

// done tallies one finished operation: err is the program's error, check
// the oracle's verdict on its output. el == 0 records no latency.
func (w *worker) done(o *op, el time.Duration, err, check error) {
	c := w.counts[o.kind]
	if c == nil {
		c = &kindCount{}
		w.counts[o.kind] = c
	}
	c.Attempted++
	switch {
	case err != nil:
		c.Failed++
		w.note(o.kind, err)
	case check != nil:
		c.Failed++
		w.note(o.kind, check)
		if o.kind != probeKind {
			w.unexpected++
		}
	case el > 0:
		w.lat[o.class].add(el)
		w.kindLatencies(o.kind).add(el)
	}
}

func (w *worker) merge(o *worker) {
	for i := range w.lat {
		w.lat[i].merge(&o.lat[i])
	}
	for k, l := range o.kindLat {
		w.kindLatencies(k).merge(l)
	}
	for k, c := range o.counts {
		if w.counts[k] == nil {
			w.counts[k] = &kindCount{}
		}
		w.counts[k].Attempted += c.Attempted
		w.counts[k].Failed += c.Failed
	}
	for _, e := range o.errs {
		if len(w.errs) < keepErrors {
			w.errs = append(w.errs, e)
		}
	}
	w.unexpected += o.unexpected
}

// probeKind is the operation kind of the read-your-writes probe.
const probeKind = "ryw_probe"

// runner drives one workload over one assembled stack.
type runner struct {
	def *workloadDef
	st  *stack
	m   model
	h   *history
}

// setUp builds the dataset, opens and loads the program, dials the
// sessions and runs one warm-up round.
func setUp(def *workloadDef, cfg config, n int) (*runner, *worker, error) {
	m := def.newModel(cfg.seed, cfg.scale, def.sessions)
	h := newHistory("tags")
	if def.shards > 0 {
		h = newHistory("rating", "author", "created")
	}
	sc := stackConfig{
		sessions: def.sessions,
		durable:  def.durable,
		shards:   def.shards,
		uncached: def.uncached,
		trace:    cfg.trace,
	}
	if def.durable {
		sc.dataDir = filepath.Join(cfg.buildDir, "data", fmt.Sprintf("%s-%d-%d", def.name, os.Getpid(), n))
		if err := os.RemoveAll(sc.dataDir); err != nil {
			return nil, nil, err
		}
	}
	st, err := openStack(sc, func(db loader) error { return m.load(db, h) })
	if err != nil {
		return nil, nil, err
	}
	r := &runner{def: def, st: st, m: m, h: h}
	warm := newWorker()
	r.runRound(m.round(def.roundOps), warm)
	if def.checkpoint {
		if err := st.quiesce(); err != nil {
			st.close()
			return nil, nil, err
		}
	}
	return r, warm, nil
}

// runRound executes one round in a closed loop: each operation is sent
// when the previous one has completed.
func (r *runner) runRound(ops []op, w *worker) {
	for i := range ops {
		r.execOp(w, &ops[i])
	}
}

func (r *runner) execOp(w *worker, o *op) {
	s := r.st.sessions[o.session]
	o.began = r.st.clk.advance(step)
	id, start := r.st.ins.beginOp(s)
	r.m.exec(r, w, o, s)
	r.st.ins.endOp(s, id, start, o.kind)
}

// read is a record read, checked for Δ-atomicity.
func (r *runner) read(w *worker, o *op, s *session) {
	start := time.Now()
	doc, err := s.c.Read(o.table, o.id)
	el := time.Since(start)
	var check error
	if err == nil {
		check = r.h.checkRead(o.table, o.id, doc, o.began, horizon)
	}
	w.done(o, el, err, check)
}

// probeWrite is the first half of the read-your-writes probe: session 0
// inserts a record, session 1 overwrites it. Its inputs are fixed.
func (r *runner) probeWrite(round int) (string, error) {
	id := fmt.Sprintf("p%06d", round)
	a, b := r.st.sessions[0], r.st.sessions[1]
	v1 := map[string]any{"tags": []any{"v1"}}
	if err := a.c.Insert(probeTable, document.New(id, v1)); err != nil {
		return id, err
	}
	r.h.insert(probeTable, id, v1, r.st.clk.nowNs())
	v2 := map[string]any{"tags": []any{"v2"}}
	doc, err := b.c.Update(probeTable, id, store.UpdateSpec{Set: v2})
	if err != nil {
		return id, err
	}
	return id, r.h.ack(probeTable, id, v2, doc, r.st.clk.nowNs())
}

// probeRead is the second half, at least Δ later: session 0 reads the
// record back and must see session 1's version.
func (r *runner) probeRead(w *worker, id string, werr error) {
	o := &op{kind: probeKind, class: classRead, table: probeTable, id: id}
	if werr != nil {
		w.done(o, 0, werr, nil)
		return
	}
	o.began = r.st.clk.advance(step)
	r.read(w, o, r.st.sessions[0])
}

// phase is what one timed phase measured.
type phase struct {
	meter    phaseMeter
	rounds   int
	ops      int64
	timed    *worker            // mix operations of the timed segments
	side     *worker            // probes and checkpoint queries
	counters map[string]float64 // summed over the timed segments
	gauges   map[string]float64 // read at the end
	spans    []span
	early    early
}

// early is what the first earlyRounds timed rounds did, or all of them if
// a run has fewer. The heap and the per-operation counts are taken there
// rather than over the whole run: the caches fill and the server's
// bookkeeping grows with every operation, so over the whole run they
// moved with the number of rounds a faster stretch of the host fitted
// into the same seconds (heap_live_mb by 0.10–0.20 between runs). Over
// the same operations in every run they depend on the seed alone.
type early struct {
	ops            int64
	alloc          uint64
	originRequests float64
	heapMiB        float64
}

// earlyRounds is how many timed rounds the early figures cover.
const earlyRounds = 5

// timedPhase runs whole rounds until the timed segments add up to
// seconds. Between rounds, untimed, come the probe and the checkpoint.
func (r *runner) timedPhase(seconds float64, deadline time.Time) (*phase, error) {
	p := &phase{timed: newWorker(), side: newWorker(), counters: map[string]float64{}}
	// The timed phase starts from a collected heap.
	p.meter.collect()
	for round := 0; p.meter.wall.Seconds() < seconds && (round == 0 || time.Now().Before(deadline)); round++ {
		ops := r.m.round(r.def.roundOps)
		r.st.ins.takeSpans() // drop what the untimed part recorded
		before := r.st.counters()
		p.meter.resume()
		r.runRound(ops, p.timed)
		if r.def.checkpoint {
			if err := r.st.quiesce(); err != nil {
				return nil, err
			}
		}
		p.meter.pause(int64(len(ops)))
		addDelta(p.counters, before, r.st.counters())
		p.spans = append(p.spans, r.st.ins.takeSpans()...)
		if round == earlyRounds-1 {
			p.noteEarly()
		}

		var probeID string
		var probeErr error
		if r.def.probe {
			probeID, probeErr = r.probeWrite(round)
		}
		if r.def.checkpoint {
			if err := r.st.quiesce(); err != nil {
				return nil, err
			}
			r.st.ins.dropPending()
			r.st.clk.advance(horizon)
			r.m.checkpoint(r, p.side)
		}
		if r.def.probe {
			r.probeRead(p.side, probeID, probeErr)
		}
		p.rounds++
	}
	p.ops = p.timedOps()
	if p.ops == 0 {
		return nil, errors.New("no operation completed")
	}
	if p.rounds < earlyRounds {
		p.noteEarly()
	}
	p.gauges = r.st.gauges()
	return p, nil
}

func (p *phase) timedOps() int64 {
	var n int64
	for _, c := range p.timed.counts {
		n += c.Attempted
	}
	return n
}

func (p *phase) noteEarly() {
	p.early = early{
		ops:            p.timedOps(),
		alloc:          p.meter.alloc,
		originRequests: p.counters["origin.requests"],
		heapMiB:        p.meter.liveHeapMiB(),
	}
}

// durabilityCheck closes the durable store or shards, reopens them and
// looks for every acknowledged write. It returns the reopen time.
func (r *runner) durabilityCheck() (time.Duration, error) {
	r.st.stopServing()
	r.st.closeData()
	start := time.Now()
	err := r.st.openData(runFsync)
	took := time.Since(start)
	if err != nil {
		return took, fmt.Errorf("reopening %s: %w", r.st.cfg.dataDir, err)
	}
	r.h.mu.Lock()
	defer r.h.mu.Unlock()
	keys := make([]string, 0, len(r.h.recs))
	for k := range r.h.recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want := r.h.recs[k].latest()
		table, id, _ := cutKey(k)
		doc, err := r.st.get(table, id)
		if err != nil {
			return took, fmt.Errorf("after reopen, %s: %w", k, err)
		}
		if doc.Version != want.version || !reflect.DeepEqual(r.h.pick(doc.Fields), want.fields) {
			return took, fmt.Errorf("after reopen, %s is v%d %v, v%d %v was acknowledged", k, doc.Version, r.h.pick(doc.Fields), want.version, want.fields)
		}
	}
	return took, nil
}

func cutKey(k string) (string, string, bool) {
	for i := 0; i < len(k); i++ {
		if k[i] == '/' {
			return k[:i], k[i+1:], true
		}
	}
	return k, "", false
}
