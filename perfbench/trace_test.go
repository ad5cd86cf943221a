package main

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOf(t *testing.T) {
	parent := span{Start: 0, End: ms(100)}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, ms(100)},
		{"sequential", []span{{Start: ms(10), End: ms(30)}, {Start: ms(40), End: ms(50)}}, ms(70)},
		{"overlapping children count once", []span{{Start: ms(10), End: ms(30)}, {Start: ms(20), End: ms(40)}}, ms(70)},
		{"nested child inside another", []span{{Start: ms(10), End: ms(60)}, {Start: ms(20), End: ms(30)}}, ms(50)},
		{"touching children", []span{{Start: ms(0), End: ms(50)}, {Start: ms(50), End: ms(100)}}, 0},
		{"clipped to the parent", []span{{Start: ms(90), End: ms(120)}}, ms(90)},
		{"outside the parent", []span{{Start: ms(150), End: ms(160)}}, ms(100)},
	} {
		if got := selfTimeOf(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("detect", 0)
	a := tr.begin("step", root)
	time.Sleep(2 * time.Millisecond)
	tr.end(a)
	b := tr.begin("step", root)
	time.Sleep(2 * time.Millisecond)
	tr.end(b)
	tr.end(root)

	if got := len(tr.children(root)); got != 2 {
		t.Fatalf("root has %d children, want 2", got)
	}
	steps := tr.sumByName(root, "step")
	if want := tr.get(a).dur() + tr.get(b).dur(); steps != want {
		t.Errorf("sumByName = %v, want %v", steps, want)
	}
	if got, want := tr.selfTime(root), tr.get(root).dur()-steps; got != want {
		t.Errorf("root self time %v, want duration minus children %v", got, want)
	}

	dir := t.TempDir()
	path, err := tr.writeFile(dir, "spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 3 || got[1].Parent != root || got[1].Name != "step" || got[1].dur() <= 0 {
		t.Errorf("spans read back = %+v", got)
	}
}
