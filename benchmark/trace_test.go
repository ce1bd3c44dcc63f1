package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimesSumToRoot(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, -1, 0)
	for i := 0; i < 3; i++ {
		req := tr.begin("request", root, i, 0)
		for _, name := range []string{"decode", "apply"} {
			sp := tr.begin(name, req, i, 0)
			time.Sleep(200 * time.Microsecond)
			tr.end(sp)
		}
		tr.end(req)
	}
	tr.end(root)

	var sum time.Duration
	for i, d := range selfTimes(tr.spans) {
		if d < 0 {
			t.Errorf("span %d (%s) has negative self time %v", i, tr.spans[i].Name, d)
		}
		if p := tr.spans[i].Parent; p >= i {
			t.Errorf("span %d recorded before its parent %d", i, p)
		}
		sum += d
	}
	if rootDur := tr.spans[root].End - tr.spans[root].Start; sum != rootDur {
		t.Errorf("self times sum to %v, root lasted %v", sum, rootDur)
	}
	total, count := selfByName(tr.spans)
	if count["decode"] != 3 || count["apply"] != 3 || count["request"] != 3 || total["decode"] < 600*time.Microsecond {
		t.Errorf("selfByName: counts %v totals %v", count, total)
	}
}

func TestChromeTraceWriter(t *testing.T) {
	tr := newTracer()
	root := tr.begin("probe", -1, -1, 2)
	child := tr.begin("core.apply", root, 7, 2)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := writeChromeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			TID  int
			Args map[string]int
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Name != "probe" || doc.TraceEvents[1].Name != "core.apply" {
		t.Fatalf("events %+v: want the parent, then its child", doc.TraceEvents)
	}
	if ev := doc.TraceEvents[1]; ev.Ph != "X" || ev.TID != 2 || ev.Args["request"] != 7 || ev.Args["parent"] != root {
		t.Errorf("child event %+v", ev)
	}

	if err := writeChromeTrace(path, []span{{Name: "child", Parent: 1}, {Name: "late parent", Parent: -1}}); err == nil {
		t.Error("a span recorded before its parent was accepted")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", -1, -1, 0)
	tr.end(sp)
	tr.add("y", time.Now(), time.Now(), -1, 0, 0)
}
