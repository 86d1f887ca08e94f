package main

import (
	"reflect"
	"testing"
	"time"

	"quaestor/internal/document"
)

func doc(id string, version int64, fields map[string]any) *document.Document {
	return &document.Document{ID: id, Version: version, Fields: fields}
}

func TestCheckReadDeltaAtomicity(t *testing.T) {
	const s = int64(time.Second)
	h := newHistory("tags")
	h.insert("t", "a", map[string]any{"tags": []any{"x"}}, 0)
	v2 := map[string]any{"tags": []any{"y"}}
	if err := h.ack("t", "a", v2, doc("a", 2, v2), 10*s); err != nil {
		t.Fatal(err)
	}
	horizon := time.Second + time.Millisecond
	old := doc("a", 1, map[string]any{"tags": []any{"x"}})
	cur := doc("a", 2, map[string]any{"tags": []any{"y"}})

	for _, tc := range []struct {
		name  string
		start int64
		got   *document.Document
		ok    bool
	}{
		{"old version within Δ of the write", 10*s + s/2, old, true},
		{"old version exactly at the horizon", 10*s + int64(horizon), old, true},
		{"old version past Δ", 10*s + int64(horizon) + 1, old, false},
		{"new version past Δ", 20 * s, cur, true},
		{"new version before its ack", 5 * s, cur, true},
		{"content of another version", 20 * s, doc("a", 2, map[string]any{"tags": []any{"x"}}), false},
		{"unknown version", 20 * s, doc("a", 3, map[string]any{"tags": []any{"y"}}), false},
		{"another record", 20 * s, doc("b", 2, map[string]any{"tags": []any{"y"}}), false},
	} {
		err := h.checkRead("t", "a", tc.got, tc.start, horizon)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkRead = %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}

func TestAckRejectsWrongAfterImage(t *testing.T) {
	h := newHistory("rating")
	h.insert("t", "a", map[string]any{"rating": int64(1)}, 0)
	want := map[string]any{"rating": int64(2)}
	if err := h.ack("t", "a", want, doc("a", 3, want), 1); err == nil {
		t.Error("skipped version accepted")
	}
	if err := h.ack("t", "a", want, doc("a", 2, map[string]any{"rating": int64(1)}), 1); err == nil {
		t.Error("wrong content accepted")
	}
	// Numbers decoded from JSON compare equal to the values sent.
	if err := h.ack("t", "a", map[string]any{"rating": 2}, doc("a", 2, map[string]any{"rating": 2.0}), 1); err != nil {
		t.Errorf("canonical numbers: %v", err)
	}
}

func TestTagOracle(t *testing.T) {
	o := newTagOracle()
	o.set("t", "c", nil, []string{"x"})
	o.set("t", "a", nil, []string{"x", "y"})
	o.set("t", "b", nil, []string{"y", "z"})
	if got := o.match("t", "x"); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("x = %v", got)
	}
	o.set("t", "b", []string{"y", "z"}, []string{"x", "z"})
	if got := o.match("t", "x"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("x after flip = %v", got)
	}
	if got := o.match("t", "y"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("y after flip = %v", got)
	}
	if got := o.match("u", "x"); len(got) != 0 {
		t.Errorf("other table = %v", got)
	}
}

func TestPostsOracle(t *testing.T) {
	o := newPostsOracle(10)
	o.add("p1", "ann", 5, 10)
	o.add("p2", "bob", 9, 20)
	o.add("p3", "ann", 5, 30)
	o.add("p4", "ann", 1, 30)
	o.finish()
	for _, tc := range []struct {
		name string
		got  []string
		want []string
	}{
		// Rating descending, ties by ascending id.
		{"rating >= 5", o.topRating(5, 10), []string{"p2", "p1", "p3"}},
		{"rating >= 0 limit 2", o.topRating(0, 2), []string{"p2", "p1"}},
		// Created descending, ties by ascending id.
		{"author ann", o.authorRecent("ann", 10), []string{"p3", "p4", "p1"}},
		{"author ann limit 1", o.authorRecent("ann", 1), []string{"p3"}},
		{"author nobody", o.authorRecent("eve", 10), []string{}},
		// No ORDER BY: ascending id.
		{"created >= 20", o.createdFrom(20, 10), []string{"p2", "p3", "p4"}},
		{"created >= 20 limit 1", o.createdFrom(20, 1), []string{"p2"}},
	} {
		if len(tc.got) != 0 || len(tc.want) != 0 {
			if !reflect.DeepEqual(tc.got, tc.want) {
				t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
			}
		}
	}
	o.setRating("p4", 9)
	if got := o.topRating(0, 10); !reflect.DeepEqual(got, []string{"p2", "p4", "p1", "p3"}) {
		t.Errorf("after update = %v", got)
	}
}

func TestCheckAnswer(t *testing.T) {
	h := newHistory("rating")
	h.insert("t", "a", map[string]any{"rating": int64(1)}, 0)
	h.insert("t", "b", map[string]any{"rating": int64(2)}, 0)
	want := h.expect("t", []string{"b", "a"})
	a := doc("a", 1, map[string]any{"rating": int64(1)})
	b := doc("b", 1, map[string]any{"rating": int64(2)})
	if err := h.checkAnswer("q", []*document.Document{b, a}, want); err != nil {
		t.Errorf("matching answer: %v", err)
	}
	if err := h.checkAnswer("q", []*document.Document{a, b}, want); err == nil {
		t.Error("wrong order accepted")
	}
	if err := h.checkAnswer("q", []*document.Document{b}, want); err == nil {
		t.Error("missing member accepted")
	}
	stale := doc("b", 1, map[string]any{"rating": int64(7)})
	if err := h.checkAnswer("q", []*document.Document{stale, a}, want); err == nil {
		t.Error("wrong content accepted")
	}
}
