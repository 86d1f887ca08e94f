package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"quaestor/internal/client"
	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/store"
	"quaestor/internal/workload"
)

// workloadDef fixes everything about a workload except its seed. Every
// workload is one closed loop: one load goroutine sends each operation
// when the previous one has completed.
type workloadDef struct {
	name       string
	sessions   int
	durable    bool
	shards     int
	uncached   bool
	roundOps   int  // operations per round
	probe      bool // one read-your-writes probe per round
	checkpoint bool // quiesced query checks per round
	// newModel builds the data, the generator and the oracle from a seed.
	newModel func(seed int64, scale float64, sessions int) model
}

// delta is Δ, the sessions' EBF refresh interval.
const delta = time.Second

// step is the virtual time the load generator advances per operation:
// the nominal arrival rate is 1/step.
const step = time.Millisecond

// horizon is Δ plus one clock step: a read must see every version
// acknowledged longer than this before it began.
const horizon = delta + step

// checkpointQueries is how many recently issued queries each session
// re-issues and checks at a checkpoint.
const checkpointQueries = 4

var workloads = []*workloadDef{
	{
		// The paper's headline setup: client cache, EBF, CDN tier and TTL
		// estimator do the work, the store idles.
		name:       "paper-readheavy",
		sessions:   16,
		roundOps:   4000,
		probe:      true,
		checkpoint: true,
		newModel: func(seed int64, scale float64, sessions int) model {
			return newBlogModel(seed, scale, sessions, workload.ReadHeavy)
		},
	},
	{
		// The write path: HTTP decode, shard commit, WAL append with
		// interval fsync, commit pipeline, InvaliDB matching, purges and
		// EBF churn. The caches serve invalidation rather than hits.
		// BENCHMARK.json does not list it: its record reads fail the Δ
		// check on some seeds (README, Known faults).
		name:       "durable-writeheavy",
		sessions:   16,
		durable:    true,
		roundOps:   3000,
		checkpoint: true,
		newModel: func(seed int64, scale float64, sessions int) model {
			return newBlogModel(seed, scale, sessions, workload.Mix{Read: 0.25, Query: 0.25, Update: 0.5})
		},
	},
	{
		// The paper's uncached baseline on a 4-shard router: store,
		// planner, executor and scatter-gather do all the work. Each shard
		// logs its writes to a WAL of its own with interval fsync.
		name:     "sharded-querymix",
		sessions: 4,
		shards:   4,
		durable:  true,
		uncached: true,
		roundOps: 2000,
		newModel: func(seed int64, scale float64, sessions int) model {
			return newPostsModel(seed, scale, sessions)
		},
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Latency classes of the end-to-end metrics.
const (
	classRead = iota
	classQuery
	classWrite
	nClasses
)

var classNames = [nClasses]string{"read", "query", "write"}

// op is one generated operation.
type op struct {
	kind    string // the operation kind counts are reported by
	class   int
	session int
	table   string
	id      string
	q       *query.Query
	qi      int    // blog: index of the query
	tag     string // blog update: the new first tag
	shape   int    // posts: query shape
	arg     int64  // posts: query bound, or the new rating
	author  string // posts: author probed
	began   int64  // virtual time the operation started
}

// model is one workload's data, operation generator and oracle.
type model interface {
	// load fills the program and the shadow with the initial data.
	load(db loader, h *history) error
	// round draws the next n operations.
	round(n int) []op
	// exec runs o on its session and checks the output.
	exec(r *runner, w *worker, o *op, s *session)
	// checkpoint re-issues each session's recent queries at a quiesced
	// point and checks them against the oracle.
	checkpoint(r *runner, w *worker)
}

func owner(table, id string, sessions int) int {
	h := fnv.New32a()
	h.Write([]byte(table))
	h.Write([]byte{'/'})
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(sessions))
}

// blogModel is the paper's dataset: workload.GenerateDataset's tables of
// tagged posts and its CONTAINS queries, with tag-flip updates.
type blogModel struct {
	ds       *workload.Dataset
	gen      *workload.Generator
	pick     *rand.Rand
	sessions int
	tags     *tagOracle
	queries  []*query.Query
	qindex   map[*query.Query]int
	qtag     []string
	qpath    []string
	// pathsByTag maps table → tag → the query paths a change of that tag
	// affects.
	pathsByTag map[string]map[string][]string
	recent     [][]int // per session, the most recent distinct queries
}

func newBlogModel(seed int64, scale float64, sessions int, mix workload.Mix) *blogModel {
	docs := max(100, int(10000*scale))
	ds := workload.GenerateDataset(&workload.DatasetConfig{DocsPerTable: docs, Seed: seed})
	m := &blogModel{
		ds:         ds,
		gen:        workload.NewGenerator(ds, mix, 0.99, seed),
		pick:       rand.New(rand.NewSource(seed ^ 0x5e55)),
		sessions:   sessions,
		tags:       newTagOracle(),
		queries:    ds.Queries,
		qindex:     map[*query.Query]int{},
		pathsByTag: map[string]map[string][]string{},
	}
	for i, q := range ds.Queries {
		m.qindex[q] = i
		// GenerateDataset's query i of a table is "tags CONTAINS
		// tag%05d" over i modulo the tag domain.
		tag := fmt.Sprintf("tag%05d", (i%len(ds.ByTable[q.Table]))%ds.TagDomain)
		path := client.QueryPath(q)
		m.qtag = append(m.qtag, tag)
		m.qpath = append(m.qpath, path)
		if m.pathsByTag[q.Table] == nil {
			m.pathsByTag[q.Table] = map[string][]string{}
		}
		m.pathsByTag[q.Table][tag] = append(m.pathsByTag[q.Table][tag], path)
	}
	m.recent = make([][]int, sessions)
	for s := range m.recent {
		for k := 0; k < checkpointQueries; k++ {
			m.recent[s] = append(m.recent[s], (s*checkpointQueries+k)%len(m.queries))
		}
	}
	return m
}

func (m *blogModel) load(db loader, h *history) error {
	for _, t := range m.ds.Tables {
		if err := db.CreateTable(t); err != nil {
			return err
		}
		for _, d := range m.ds.Docs[t] {
			if err := db.Insert(t, d); err != nil {
				return err
			}
			h.insert(t, d.ID, d.Fields, 0)
			m.tags.set(t, d.ID, nil, tagsOf(canonical(d.Fields["tags"])))
		}
		if err := db.CreateIndex(t, "tags"); err != nil {
			return err
		}
		// The generator needs only the ids from here on.
		for i, d := range m.ds.Docs[t] {
			m.ds.Docs[t][i] = &document.Document{ID: d.ID}
		}
	}
	return db.CreateTable(probeTable)
}

func (m *blogModel) round(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		g := m.gen.Next()
		o := op{table: g.Table, id: g.DocID}
		switch g.Type {
		case workload.OpRead:
			o.kind, o.class, o.session = "read", classRead, m.pick.Intn(m.sessions)
		case workload.OpQuery:
			o.kind, o.class, o.session = "query", classQuery, m.pick.Intn(m.sessions)
			o.q, o.qi = g.Query, m.qindex[g.Query]
		case workload.OpUpdate:
			// Each record is written by its owning session only.
			o.kind, o.class, o.session = "update", classWrite, owner(g.Table, g.DocID, m.sessions)
			o.tag = g.UpdateTag
		default:
			panic(fmt.Sprintf("blog mix drew %v", g.Type))
		}
		ops[i] = o
	}
	return ops
}

func (m *blogModel) exec(r *runner, w *worker, o *op, s *session) {
	switch o.class {
	case classRead:
		r.read(w, o, s)
	case classQuery:
		start := time.Now()
		_, err := s.c.Query(o.q)
		w.done(o, time.Since(start), err, nil)
		m.noteQuery(o.session, o.qi)
	case classWrite:
		cur, _ := r.h.current(o.table, o.id)
		oldTags := tagsOf(cur.fields["tags"])
		newTags := []string{o.tag, oldTags[len(oldTags)-1]}
		fields := map[string]any{"tags": []any{newTags[0], newTags[1]}}
		sent := time.Now()
		doc, err := s.c.Update(o.table, o.id, store.UpdateSpec{Set: fields})
		acked := time.Now()
		var check error
		if err == nil {
			check = r.h.ack(o.table, o.id, fields, doc, r.st.clk.nowNs())
			m.tags.set(o.table, o.id, oldTags, newTags)
			var paths []string
			for _, t := range append(oldTags, newTags...) {
				paths = append(paths, m.pathsByTag[o.table][t]...)
			}
			r.st.ins.writeAcked(paths, sent, acked)
		}
		w.done(o, acked.Sub(sent), err, check)
	}
}

// noteQuery keeps the session's most recent distinct queries, the ones a
// checkpoint re-checks.
func (m *blogModel) noteQuery(session, qi int) {
	rec := m.recent[session]
	for _, x := range rec {
		if x == qi {
			return
		}
	}
	copy(rec[1:], rec[:len(rec)-1])
	rec[0] = qi
}

func (m *blogModel) checkpoint(r *runner, w *worker) {
	for si, s := range r.st.sessions {
		for _, qi := range m.recent[si] {
			q := m.queries[qi]
			o := op{kind: "checkpoint_query", class: classQuery, session: si}
			res, err := s.c.Query(q)
			var check error
			if err == nil {
				want := r.h.expect(q.Table, m.tags.match(q.Table, m.qtag[qi]))
				check = r.h.checkAnswer(fmt.Sprintf("session %d query %s", si, m.qpath[qi]), res.Docs, want)
			}
			w.done(&o, 0, err, check)
		}
	}
}

// probeTable holds the records of the read-your-writes probe.
const probeTable = "probe"

// postsModel is one table of posts on a sharded router, with an ordered
// index on rating and a hash index on author.
type postsModel struct {
	docs     int
	authors  int
	sessions int
	rng      *rand.Rand
	idZipf   *workload.Zipf
	oracle   *postsOracle
	seed     int64
}

const (
	postsTable   = "posts"
	ratingDomain = 1000
	createdMax   = 1_000_000_000
	queryLimit   = 10
)

// Query shapes of the sharded workload.
const (
	shapeRatingTop = iota
	shapeAuthorRecent
	shapeCreatedScan
)

var shapeKinds = [...]string{"query.rating_top", "query.author_recent", "query.created_scan"}

// postsMix is the sharded workload's operation mix per 100 operations.
// Every round holds exactly these shares, shuffled, so the share of each
// shape, and with it where the query percentiles fall, is the same in
// every run. The unindexed scan is rare enough that the query p90 falls in
// the tail of the indexed shapes rather than on the edge of the scan's
// mode, where it spread by half between runs at 5 scans per 100; it still
// takes 29 % of the summed median latencies (seed 3), the ordered and
// probe shapes 35 % and 24 %.
var postsMix = []struct {
	kind  string
	class int
	shape int
	per   int
}{
	{"read", classRead, 0, 35},
	{"update", classWrite, 0, 25},
	{shapeKinds[shapeRatingTop], classQuery, shapeRatingTop, 19},
	{shapeKinds[shapeAuthorRecent], classQuery, shapeAuthorRecent, 19},
	{shapeKinds[shapeCreatedScan], classQuery, shapeCreatedScan, 2},
}

func postID(i int) string { return fmt.Sprintf("post%06d", i) }

func newPostsModel(seed int64, scale float64, sessions int) *postsModel {
	n := max(200, int(10000*scale))
	return &postsModel{
		docs:     n,
		authors:  max(2, n/100),
		sessions: sessions,
		rng:      rand.New(rand.NewSource(seed)),
		idZipf:   workload.NewZipf(n, 0.99),
		oracle:   newPostsOracle(ratingDomain),
		seed:     seed,
	}
}

func (m *postsModel) load(db loader, h *history) error {
	if err := db.CreateTable(postsTable); err != nil {
		return err
	}
	for _, path := range []string{"rating", "author"} {
		if err := db.CreateIndex(postsTable, path); err != nil {
			return err
		}
	}
	data := rand.New(rand.NewSource(m.seed ^ 0xda7a))
	for i := 0; i < m.docs; i++ {
		id := postID(i)
		author := fmt.Sprintf("user%04d", data.Intn(m.authors))
		rating := int64(data.Intn(ratingDomain))
		created := data.Int63n(createdMax)
		fields := map[string]any{"author": author, "rating": rating, "created": created, "title": "post " + id}
		if err := db.Insert(postsTable, document.New(id, fields)); err != nil {
			return err
		}
		h.insert(postsTable, id, fields, 0)
		m.oracle.add(id, author, rating, created)
	}
	m.oracle.finish()
	return nil
}

// round draws n operations, n a multiple of 100.
func (m *postsModel) round(n int) []op {
	var kinds []int
	for k, mx := range postsMix {
		for i := 0; i < mx.per*n/100; i++ {
			kinds = append(kinds, k)
		}
	}
	m.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ops := make([]op, len(kinds))
	for i, k := range kinds {
		mx := postsMix[k]
		o := op{kind: mx.kind, class: mx.class, shape: mx.shape, table: postsTable, session: m.rng.Intn(m.sessions)}
		switch {
		case mx.class == classRead:
			o.id = postID(m.idZipf.Sample(m.rng))
		case mx.class == classWrite:
			o.id = postID(m.idZipf.Sample(m.rng))
			o.session = owner(postsTable, o.id, m.sessions)
			o.arg = int64(m.rng.Intn(ratingDomain))
		case mx.shape == shapeRatingTop:
			o.arg = int64(m.rng.Intn(ratingDomain))
			o.q = query.New(postsTable, query.Gte("rating", o.arg)).Sorted(query.Desc("rating")).Sliced(0, queryLimit)
		case mx.shape == shapeAuthorRecent:
			o.author = fmt.Sprintf("user%04d", m.rng.Intn(m.authors))
			o.q = query.New(postsTable, query.Eq("author", o.author)).Sorted(query.Desc("created")).Sliced(0, queryLimit)
		default:
			o.arg = m.rng.Int63n(createdMax * 9 / 10)
			o.q = query.New(postsTable, query.Gte("created", o.arg)).Sliced(0, queryLimit)
		}
		ops[i] = o
	}
	return ops
}

func (m *postsModel) exec(r *runner, w *worker, o *op, s *session) {
	switch o.class {
	case classRead:
		r.read(w, o, s)
	case classWrite:
		cur, _ := r.h.current(o.table, o.id)
		fields := map[string]any{"rating": o.arg, "author": cur.fields["author"], "created": cur.fields["created"]}
		start := time.Now()
		doc, err := s.c.Update(o.table, o.id, store.UpdateSpec{Set: map[string]any{"rating": o.arg}})
		el := time.Since(start)
		var check error
		if err == nil {
			check = r.h.ack(o.table, o.id, fields, doc, r.st.clk.nowNs())
			m.oracle.setRating(o.id, o.arg)
		}
		w.done(o, el, err, check)
	case classQuery:
		start := time.Now()
		res, err := s.c.Query(o.q)
		el := time.Since(start)
		var check error
		if err == nil {
			var ids []string
			switch o.shape {
			case shapeRatingTop:
				ids = m.oracle.topRating(o.arg, queryLimit)
			case shapeAuthorRecent:
				ids = m.oracle.authorRecent(o.author, queryLimit)
			default:
				ids = m.oracle.createdFrom(o.arg, queryLimit)
			}
			check = r.h.checkAnswer(o.kind+" "+client.QueryPath(o.q), res.Docs, r.h.expect(postsTable, ids))
		}
		w.done(o, el, err, check)
	}
}

func (m *postsModel) checkpoint(*runner, *worker) {}
