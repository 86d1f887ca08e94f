package main

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"quaestor/internal/document"
)

// The oracle is computed apart from the program: a shadow of every
// acknowledged write, plus its own matchers and sort for the query
// shapes the workloads pose. It never calls the program's query code.

// shadowVersion is one acknowledged version of a record: the fields the
// workload tracks, and the virtual time the write was acknowledged
// (0 for the initially loaded data).
type shadowVersion struct {
	version int64
	ackAt   int64
	fields  map[string]any
}

type shadowRecord struct {
	versions []shadowVersion // ascending by version
}

func (r *shadowRecord) latest() shadowVersion { return r.versions[len(r.versions)-1] }

// history is the shadow copy of every acknowledged write.
type history struct {
	mu      sync.Mutex
	tracked []string // fields compared on every check
	recs    map[string]*shadowRecord
}

func newHistory(tracked ...string) *history {
	return &history{tracked: tracked, recs: map[string]*shadowRecord{}}
}

func recKey(table, id string) string { return table + "/" + id }

// insert records the first version of a record, acknowledged at virtual
// time ackAt (0 for the initially loaded data).
func (h *history) insert(table, id string, fields map[string]any, ackAt int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs[recKey(table, id)] = &shadowRecord{versions: []shadowVersion{{version: 1, ackAt: ackAt, fields: h.pick(fields)}}}
}

// pick copies the tracked fields out of a field map.
func (h *history) pick(fields map[string]any) map[string]any {
	out := make(map[string]any, len(h.tracked))
	for _, f := range h.tracked {
		out[f] = canonical(fields[f])
	}
	return out
}

// current returns the newest acknowledged content of a record.
func (h *history) current(table, id string) (shadowVersion, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.recs[recKey(table, id)]
	if !ok {
		return shadowVersion{}, false
	}
	return r.latest(), true
}

// ack records an acknowledged write of fields. The returned after-image
// must be the next version and carry that content.
func (h *history) ack(table, id string, fields map[string]any, doc *document.Document, ackAt int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.recs[recKey(table, id)]
	want := h.pick(fields)
	next := r.latest().version + 1
	if doc.ID != id || doc.Version != next {
		return fmt.Errorf("write %s/%s acknowledged as %s v%d, want v%d", table, id, doc.ID, doc.Version, next)
	}
	if got := h.pick(doc.Fields); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("write %s/%s v%d acknowledged with %v, want %v", table, id, next, got, want)
	}
	r.versions = append(r.versions, shadowVersion{version: next, ackAt: ackAt, fields: want})
	return nil
}

// checkRead verifies Δ-atomicity for a read that began at virtual time
// start: the returned version is at least as new as every version
// acknowledged before start−horizon, and its content is the content of
// that version.
func (h *history) checkRead(table, id string, doc *document.Document, start int64, horizon time.Duration) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.recs[recKey(table, id)]
	if !ok {
		return fmt.Errorf("read of unknown record %s/%s", table, id)
	}
	if doc == nil || doc.ID != id {
		return fmt.Errorf("read of %s/%s returned another record", table, id)
	}
	need := r.versions[0].version
	for _, v := range r.versions {
		if v.ackAt < start-int64(horizon) {
			need = v.version
		}
	}
	if doc.Version < need {
		return fmt.Errorf("stale read of %s/%s: v%d returned, v%d acknowledged more than %v before the read", table, id, doc.Version, need, horizon)
	}
	got := h.pick(doc.Fields)
	for _, v := range r.versions {
		if v.version == doc.Version {
			if !reflect.DeepEqual(got, v.fields) {
				return fmt.Errorf("read of %s/%s v%d returned %v, acknowledged content %v", table, id, doc.Version, got, v.fields)
			}
			return nil
		}
	}
	return fmt.Errorf("read of %s/%s returned unknown version v%d", table, id, doc.Version)
}

// canonical maps a field value onto one representation per JSON type so
// values that went over the wire compare equal to the values sent.
func canonical(v any) any {
	switch t := v.(type) {
	case int:
		return int64(t)
	case float64:
		if t == float64(int64(t)) {
			return int64(t)
		}
		return t
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = canonical(e)
		}
		return out
	case []string:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = e
		}
		return out
	default:
		return v
	}
}

// expectDoc is one member of an expected query answer.
type expectDoc struct {
	id      string
	version int64
	fields  map[string]any
}

// checkAnswer compares a query answer with the oracle's, in content and
// order.
func (h *history) checkAnswer(what string, docs []*document.Document, want []expectDoc) error {
	if len(docs) != len(want) {
		return fmt.Errorf("%s: %d results, oracle has %d (%v)", what, len(docs), len(want), idsOf(want))
	}
	for i, d := range docs {
		w := want[i]
		if d == nil || d.ID != w.id || d.Version != w.version {
			return fmt.Errorf("%s: result %d is %v, oracle has %s v%d (oracle order %v)", what, i, docLabel(d), w.id, w.version, idsOf(want))
		}
		if got := h.pick(d.Fields); !reflect.DeepEqual(got, w.fields) {
			return fmt.Errorf("%s: result %s has %v, oracle has %v", what, w.id, got, w.fields)
		}
	}
	return nil
}

func docLabel(d *document.Document) string {
	if d == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s v%d", d.ID, d.Version)
}

func idsOf(want []expectDoc) []string {
	out := make([]string, len(want))
	for i, w := range want {
		out[i] = w.id
	}
	return out
}

// expect builds the expected answer from ids in answer order.
func (h *history) expect(table string, ids []string) []expectDoc {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]expectDoc, len(ids))
	for i, id := range ids {
		v := h.recs[recKey(table, id)].latest()
		out[i] = expectDoc{id: id, version: v.version, fields: v.fields}
	}
	return out
}

// tagOracle answers "tags CONTAINS t" over the shadow: every matching id
// in ascending order (the implicit order of a query without ORDER BY).
type tagOracle struct {
	mu    sync.Mutex
	byTag map[string]map[string]map[string]struct{} // table → tag → ids
}

func newTagOracle() *tagOracle {
	return &tagOracle{byTag: map[string]map[string]map[string]struct{}{}}
}

func tagsOf(v any) []string {
	var out []string
	if list, ok := v.([]any); ok {
		for _, e := range list {
			if s, ok := e.(string); ok {
				out = append(out, s)
			}
		}
	}
	return out
}

// set replaces a record's tags.
func (o *tagOracle) set(table, id string, oldTags, newTags []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	tt := o.byTag[table]
	if tt == nil {
		tt = map[string]map[string]struct{}{}
		o.byTag[table] = tt
	}
	for _, t := range oldTags {
		delete(tt[t], id)
	}
	for _, t := range newTags {
		if tt[t] == nil {
			tt[t] = map[string]struct{}{}
		}
		tt[t][id] = struct{}{}
	}
}

// match returns the ids whose tags contain tag, ascending.
func (o *tagOracle) match(table, tag string) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := make([]string, 0, len(o.byTag[table][tag]))
	for id := range o.byTag[table][tag] {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// postsOracle answers the three query shapes of the sharded workload.
// author and created never change; rating is updated.
type postsOracle struct {
	ratingDomain int
	byRating     [][]string // rating → ids ascending
	rating       map[string]int64
	byAuthor     map[string][]postRef // created descending, id ascending
	byID         []postRef            // id ascending
}

type postRef struct {
	id      string
	created int64
}

func newPostsOracle(ratingDomain int) *postsOracle {
	return &postsOracle{
		ratingDomain: ratingDomain,
		byRating:     make([][]string, ratingDomain),
		rating:       map[string]int64{},
		byAuthor:     map[string][]postRef{},
	}
}

// add loads one post; finish must run after the last add.
func (o *postsOracle) add(id, author string, rating, created int64) {
	o.rating[id] = rating
	o.byRating[rating] = append(o.byRating[rating], id)
	o.byAuthor[author] = append(o.byAuthor[author], postRef{id, created})
	o.byID = append(o.byID, postRef{id, created})
}

func (o *postsOracle) finish() {
	for _, ids := range o.byRating {
		sort.Strings(ids)
	}
	for _, refs := range o.byAuthor {
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].created != refs[j].created {
				return refs[i].created > refs[j].created
			}
			return refs[i].id < refs[j].id
		})
	}
	sort.Slice(o.byID, func(i, j int) bool { return o.byID[i].id < o.byID[j].id })
}

func removeSorted(ids []string, id string) []string {
	i := sort.SearchStrings(ids, id)
	if i < len(ids) && ids[i] == id {
		return append(ids[:i], ids[i+1:]...)
	}
	return ids
}

func insertSorted(ids []string, id string) []string {
	i := sort.SearchStrings(ids, id)
	ids = append(ids, "")
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// setRating moves a post to another rating.
func (o *postsOracle) setRating(id string, rating int64) {
	old := o.rating[id]
	o.byRating[old] = removeSorted(o.byRating[old], id)
	o.byRating[rating] = insertSorted(o.byRating[rating], id)
	o.rating[id] = rating
}

// topRating is rating >= min ORDER BY rating DESC LIMIT limit.
func (o *postsOracle) topRating(min int64, limit int) []string {
	var out []string
	for r := o.ratingDomain - 1; r >= int(min) && len(out) < limit; r-- {
		for _, id := range o.byRating[r] {
			if len(out) == limit {
				break
			}
			out = append(out, id)
		}
	}
	return out
}

// authorRecent is author = a ORDER BY created DESC LIMIT limit.
func (o *postsOracle) authorRecent(author string, limit int) []string {
	refs := o.byAuthor[author]
	out := make([]string, 0, limit)
	for i := 0; i < len(refs) && i < limit; i++ {
		out = append(out, refs[i].id)
	}
	return out
}

// createdFrom is created >= min LIMIT limit, in id order.
func (o *postsOracle) createdFrom(min int64, limit int) []string {
	var out []string
	for _, ref := range o.byID {
		if len(out) == limit {
			break
		}
		if ref.created >= min {
			out = append(out, ref.id)
		}
	}
	return out
}
