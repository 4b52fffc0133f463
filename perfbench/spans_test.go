package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	log := newSpanLog(100)
	root := log.add("root", 0, 1, at(0), at(100))
	log.add("a", root, 1, at(10), at(30))
	log.add("b", root, 1, at(20), at(50))  // overlaps a: 10..50 covered once
	log.add("c", root, 1, at(90), at(120)) // runs past the parent: 90..100 counts
	leaf := log.add("d", root, 1, at(60), at(70))
	log.add("e", leaf, 1, at(60), at(65))
	self := selfTimes(log.spans)
	if got, want := self[root], 40*time.Microsecond; got != want {
		t.Errorf("root self = %v, want %v", got, want)
	}
	if got, want := self[leaf], 5*time.Microsecond; got != want {
		t.Errorf("d self = %v, want %v", got, want)
	}
	sum, count := selfByName(log.spans)
	if sum["a"] != 20*time.Microsecond || count["root"] != 1 {
		t.Errorf("selfByName: %v %v", sum, count)
	}
}

func TestSpanLogCapsAndWritesChrome(t *testing.T) {
	log := newSpanLog(2)
	now := time.Now()
	r := log.add("root", 0, 1, now, now.Add(time.Millisecond))
	log.add("child", r, 1, now, now.Add(time.Microsecond))
	if id := log.add("dropped", r, 1, now, now); id != 0 || log.dropped != 1 {
		t.Fatalf("span past the cap kept (id %d, dropped %d)", id, log.dropped)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := log.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Dur != 1000 {
		t.Fatalf("events %+v", doc.TraceEvents)
	}
	if self := doc.TraceEvents[0].Args["self_us"].(float64); self != 999 {
		t.Errorf("root self_us = %v, want 999", self)
	}
	if parent := doc.TraceEvents[1].Args["parent"].(float64); parent != float64(r) {
		t.Errorf("child parent = %v, want %d", parent, r)
	}
}
