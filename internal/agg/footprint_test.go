package agg

// Footprint oracle: every aggregation operator keeps MemSize as counters
// maintained where state changes. These tests hold the counters to the
// state walks MemSize used to perform, after every push, on seeded
// random streams with late tuples, punctuation group-close, Flush and a
// Snapshot→Restore round trip.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"streamdb/internal/ckpt"
	"streamdb/internal/expr"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
	"streamdb/internal/window"
)

// fpSch carries a string column so min/max states change size.
var fpSch = tuple.NewSchema("F",
	tuple.Field{Name: "time", Kind: tuple.KindTime, Ordering: true},
	tuple.Field{Name: "g", Kind: tuple.KindInt},
	tuple.Field{Name: "v", Kind: tuple.KindFloat},
	tuple.Field{Name: "s", Kind: tuple.KindString},
)

// fpStream is a mostly-ordered stream over a small key domain with late
// tuples (some behind closed windows), progress punctuations and
// punctuations closing one group.
func fpStream(seed int64, n int) []stream.Element {
	rng := rand.New(rand.NewSource(seed))
	var out []stream.Element
	maxTs := int64(0)
	for i := 0; i < n; i++ {
		ts := maxTs + rng.Int63n(4)
		if rng.Intn(12) == 0 {
			ts = maxTs - rng.Int63n(60) // late, possibly behind a closed window
		}
		if ts < 0 {
			ts = 0
		}
		if ts > maxTs {
			maxTs = ts
		}
		g := rng.Int63n(24)
		s := strings.Repeat("x", rng.Intn(12))
		out = append(out, stream.Tup(tuple.New(ts, tuple.Time(ts), tuple.Int(g),
			tuple.Float(float64(rng.Intn(400))/4), tuple.String(s))))
		switch rng.Intn(40) {
		case 0:
			out = append(out, stream.Punct(stream.EndGroupPunct(maxTs, 1, tuple.Int(rng.Int63n(24)))))
		case 1:
			out = append(out, stream.Punct(&stream.Punctuation{Ts: maxTs}))
		}
	}
	return out
}

// fpAggs builds aggregate specs over fpSch: "count" takes no argument,
// fn:col applies fn to a column.
func fpAggs(t *testing.T, approx bool, specs ...string) []Spec {
	t.Helper()
	var aggs []Spec
	for _, sp := range specs {
		name, col, _ := strings.Cut(sp, ":")
		s := Spec{Fn: mustFn(t, name, approx), Name: sp}
		if col != "" {
			s.Arg = expr.MustColumn(fpSch, col)
		}
		aggs = append(aggs, s)
	}
	return aggs
}

// walkGroupBytes is the reference footprint of one group.
func walkGroupBytes(keys []tuple.Value, states []State) int {
	n := 32
	for _, k := range keys {
		n += k.MemSize()
	}
	for _, st := range states {
		n += st.MemSize()
	}
	return n
}

// walkTable returns a table's reference footprint and group count.
func walkTable(tbl *groupTable) (bytes, live int) {
	for _, chain := range tbl.groups {
		for _, grp := range chain {
			bytes += walkGroupBytes(grp.keys, grp.states)
			live++
		}
	}
	return bytes, live
}

// walkGroupBy is the state walk GroupBy.MemSize performed before it kept
// counters (counting every group of a collision chain). It also checks
// each table's own counters.
func walkGroupBy(t *testing.T, g *GroupBy) (mem, live int) {
	t.Helper()
	mem = 128 + 16*len(g.paneWins)
	tables := []*groupTable{}
	for _, tbl := range g.windows {
		tables = append(tables, tbl)
	}
	for _, p := range g.panes {
		tables = append(tables, &p.groupTable)
	}
	if g.unbounded != nil {
		tables = append(tables, g.unbounded)
	}
	for _, tbl := range tables {
		b, n := walkTable(tbl)
		if b != tbl.bytes || n != tbl.n {
			t.Fatalf("table end %d: counters (%d B, %d groups), walk (%d B, %d groups)", tbl.end, tbl.bytes, tbl.n, b, n)
		}
		mem += b
		live += n
	}
	return mem, live
}

func checkGroupBy(t *testing.T, g *GroupBy, at string) {
	t.Helper()
	mem, live := walkGroupBy(t, g)
	if got := g.MemSize(); got != mem {
		t.Fatalf("%s: MemSize %d, walk %d", at, got, mem)
	}
	if g.live != live {
		t.Fatalf("%s: live %d, walk %d", at, g.live, live)
	}
}

func walkCombiner(c *PaneCombiner) int {
	n := 96
	for _, chain := range c.groups {
		for _, grp := range chain {
			n += 48 + walkGroupBytes(grp.keys, grp.states) - 32
		}
	}
	return n
}

func walkFinal(f *FinalAgg) int {
	n := 64
	for _, chain := range f.groups {
		for _, grp := range chain {
			n += walkGroupBytes(grp.keys, statesOf(grp.states))
		}
	}
	return n
}

func walkPartial(p *PartialAgg) int {
	n := 64
	for _, slot := range p.slots {
		n += 24
		if slot.used {
			n += walkGroupBytes(slot.keys, statesOf(slot.states)) - 32
		}
	}
	return n
}

func statesOf(ps []Partializable) []State {
	out := make([]State, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}

// roundTrip snapshots op and restores the bytes into fresh.
func roundTrip(t *testing.T, op, fresh ckpt.Snapshotter) {
	t.Helper()
	enc := &ckpt.Encoder{}
	if err := op.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(ckpt.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// driveGroupBy pushes elems through the operator built by mk, checking
// the footprint counters after every push (or batch), across a
// Snapshot→Restore at the midpoint (when snap) and the final Flush. With
// columnar set, data tuples travel in batches of up to 16 rows through
// ProcessBatch. Every output element goes to sink.
func driveGroupBy(t *testing.T, mk func() *GroupBy, elems []stream.Element, columnar, snap bool, sink ops.Emit) {
	t.Helper()
	g := mk()
	pool := stream.NewColPool(fpSch, 16)
	var pend *stream.Batch
	flushBatch := func(i int) {
		if pend != nil {
			g.ProcessBatch(0, pend, nil, sink)
			pend = nil
			checkGroupBy(t, g, fmt.Sprintf("batch ending at %d", i))
		}
	}
	for i, e := range elems {
		if i == len(elems)/2 && snap {
			flushBatch(i)
			r := mk()
			roundTrip(t, g, r)
			g = r
			checkGroupBy(t, g, "after restore")
		}
		if columnar && !e.IsPunct() {
			if pend == nil {
				pend = pool.Get()
			}
			pend.AppendRow(e.Tuple)
			if pend.Rows() == 16 {
				flushBatch(i)
			}
			continue
		}
		flushBatch(i)
		g.Push(0, e, sink)
		checkGroupBy(t, g, fmt.Sprintf("push %d", i))
	}
	flushBatch(len(elems))
	g.Flush(sink)
	checkGroupBy(t, g, "after flush")
	if g.live != 0 && g.unbounded == nil && !g.spec.Landmark {
		t.Fatalf("live groups after flush: %d", g.live)
	}
}

func TestGroupByFootprintMatchesWalk(t *testing.T) {
	partializable := []string{"count", "sum:v", "max:s", "min:s", "avg:v", "stddev:v"}
	holistic := []string{"count", "count_distinct:s", "median:v", "max:s"}
	cases := []struct {
		name   string
		spec   window.Spec
		aggs   []string
		approx bool
		legacy bool // DisablePanes
		snap   bool
	}{
		{"pane", window.Time(40, 10), partializable, false, false, true},
		{"pane-tumbling", window.Tumbling(20), partializable, false, false, true},
		{"legacy-window", window.Time(40, 10), partializable, false, true, true},
		{"legacy-holistic", window.Time(40, 10), holistic, false, false, true},
		{"legacy-approx", window.Time(40, 10), []string{"count_distinct:s", "median:v"}, true, false, false},
		{"landmark", window.Landmark(30), holistic, false, false, true},
		{"unbounded", window.Spec{}, holistic, false, false, true},
	}
	for _, tc := range cases {
		for _, columnar := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/columnar=%v", tc.name, columnar), func(t *testing.T) {
				aggs := fpAggs(t, tc.approx, tc.aggs...)
				mk := func() *GroupBy {
					g, err := NewGroupBy("q", fpSch, []expr.Expr{expr.MustColumn(fpSch, "g")},
						[]string{"g"}, aggs, tc.spec, nil)
					if err != nil {
						t.Fatal(err)
					}
					if tc.legacy {
						g.DisablePanes()
					}
					return g
				}
				for seed := int64(1); seed <= 3; seed++ {
					driveGroupBy(t, mk, fpStream(seed, 1500), columnar, tc.snap, func(stream.Element) {})
				}
			})
		}
	}
}

// TestPartialReplicaFootprintMatchesWalk runs partial replicas (row and
// columnar fold) into a PaneCombiner, holding both to their walks.
func TestPartialReplicaFootprintMatchesWalk(t *testing.T) {
	aggs := fpAggs(t, false, "count", "sum:v", "max:s", "avg:v")
	proto, err := NewGroupBy("q", fpSch, []expr.Expr{expr.MustColumn(fpSch, "g")},
		[]string{"g"}, aggs, window.Time(40, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, columnar := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			c := proto.Combiner().(*PaneCombiner)
			i := 0
			feed := func(e stream.Element) {
				c.Push(0, e, func(stream.Element) {})
				if got, want := c.MemSize(), walkCombiner(c); got != want {
					t.Fatalf("columnar=%v seed %d combiner push %d: MemSize %d, walk %d", columnar, seed, i, got, want)
				}
				i++
				if i == 200 {
					r := proto.Combiner().(*PaneCombiner)
					roundTrip(t, c, r)
					c = r
					if got, want := c.MemSize(), walkCombiner(c); got != want {
						t.Fatalf("combiner after restore: MemSize %d, walk %d", got, want)
					}
				}
			}
			mk := func() *GroupBy { return proto.ClonePartial().(*GroupBy) }
			driveGroupBy(t, mk, fpStream(seed, 1500), columnar, true, feed)
			c.Flush(func(stream.Element) {})
			if c.MemSize() != 96 || c.n != 0 {
				t.Fatalf("combiner after flush: MemSize %d, %d groups", c.MemSize(), c.n)
			}
		}
	}
}

// TestPartialFinalFootprintMatchesWalk drives the two-level
// PartialAgg→FinalAgg pair with a small slot table (frequent evictions).
func TestPartialFinalFootprintMatchesWalk(t *testing.T) {
	aggs := fpAggs(t, false, "count", "sum:v", "max:s", "min:s")
	mk := func() (*PartialAgg, *FinalAgg) {
		p, err := NewPartialAgg("lo", fpSch, []expr.Expr{expr.MustColumn(fpSch, "g")}, []string{"g"}, aggs, 7, 25)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFinalAgg("hi", p)
		if err != nil {
			t.Fatal(err)
		}
		return p, f
	}
	for seed := int64(1); seed <= 3; seed++ {
		p, f := mk()
		check := func(at string) {
			t.Helper()
			if got, want := p.MemSize(), walkPartial(p); got != want {
				t.Fatalf("seed %d %s: PartialAgg MemSize %d, walk %d", seed, at, got, want)
			}
			if got, want := f.MemSize(), walkFinal(f); got != want {
				t.Fatalf("seed %d %s: FinalAgg MemSize %d, walk %d", seed, at, got, want)
			}
		}
		toFinal := func(e stream.Element) { f.Push(0, e, func(stream.Element) {}) }
		elems := fpStream(seed, 1500)
		for i, e := range elems {
			if i == len(elems)/2 {
				p2, f2 := mk()
				roundTrip(t, p, p2)
				roundTrip(t, f, f2)
				p, f = p2, f2
				check("after restore")
			}
			p.Push(0, e, toFinal)
			check(fmt.Sprintf("push %d", i))
		}
		p.Flush(toFinal)
		check("after partial flush")
		f.Flush(func(stream.Element) {})
		check("after final flush")
	}
}

// TestGroupByMemSizeCountsChainCollisions plants two groups on one chain
// hash. MemSize used to charge 32 bytes per chained group but the keys
// and states of the chain's first group only.
func TestGroupByMemSizeCountsChainCollisions(t *testing.T) {
	g, err := NewGroupBy("q", fpSch, []expr.Expr{expr.MustColumn(fpSch, "g")},
		[]string{"g"}, fpAggs(t, false, "count", "max:s"), window.Spec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl := g.unbounded
	const h = 42
	a := g.locateGroup(tbl, []tuple.Value{tuple.Int(1)}, h)
	b := g.locateGroup(tbl, []tuple.Value{tuple.Int(2)}, h)
	g.addState(tbl, a, 1, tuple.String("a"))
	g.addState(tbl, b, 1, tuple.String("a much longer string than the first"))
	if len(tbl.groups[h]) != 2 {
		t.Fatalf("chain holds %d groups, want 2", len(tbl.groups[h]))
	}
	want := 128 + walkGroupBytes(a.keys, a.states) + walkGroupBytes(b.keys, b.states)
	if got := g.MemSize(); got != want {
		t.Fatalf("MemSize %d, want %d (both chained groups)", got, want)
	}
	checkGroupBy(t, g, "collision")
}

// TestRecycledPaneTablesTrimDeadKeys runs 250 virtual seconds of a
// 100k-address Zipf Traffic stream at 500 tuples/s through GROUP BY
// srcIP [range 60 slide 10]. A recycled table keeps an empty map cell
// per key it ever held unless trimmed; without trimming the pane tables
// reach about 21k cells for 7.4k live groups. At every recycle a table
// must keep at most 2·live + 64 cells, live being its group count when
// it was retired (pane tables) or emitted (combTbl).
func TestRecycledPaneTablesTrimDeadKeys(t *testing.T) {
	tsch := stream.TrafficSchema("Traffic")
	g, err := NewGroupBy("q", tsch, []expr.Expr{expr.MustColumn(tsch, "srcIP")}, []string{"srcIP"},
		[]Spec{
			{Fn: mustFn(t, "count", false), Name: "cnt"},
			{Fn: mustFn(t, "sum", false), Arg: expr.MustColumn(tsch, "length"), Name: "bytes"},
		}, window.Time(60*stream.Second, 10*stream.Second), nil)
	if err != nil {
		t.Fatal(err)
	}
	src := stream.NewTrafficStream(1, 500, 100_000)
	type seen struct {
		p *paneTable
		n int
	}
	open := map[int64]seen{} // each open pane by start, with its last group count
	var wends []int64        // wend of each row one push emitted
	emit := func(e stream.Element) {
		w, _ := e.Tuple.Vals[0].AsTime()
		wends = append(wends, w)
	}
	retired, closes := 0, 0
	for {
		e, _ := src.Next()
		if e.Tuple.Ts >= 250*stream.Second {
			break
		}
		wends = wends[:0]
		g.Push(0, e, emit)
		for start, o := range open {
			if g.panes[start] == o.p {
				continue
			}
			// Retired and recycled during this push; the pane may already
			// hold the push's tuple under a new start (at most one cell).
			if cells := len(o.p.groups) - o.p.n; cells > 2*o.n+64 {
				t.Fatalf("retired pane [%d, %d) keeps %d map cells for %d groups", start, start+10*stream.Second, cells, o.n)
			}
			delete(open, start)
			retired++
		}
		for start, p := range g.panes {
			open[start] = seen{p, p.n}
		}
		if len(wends) > 0 {
			// combTbl was recycled after the last window this push
			// closed; its rows are those with the largest wend.
			n := 0
			for _, w := range wends {
				if w == wends[len(wends)-1] {
					n++
				}
			}
			if cells := len(g.combTbl.groups); cells > 2*n+64 {
				t.Fatalf("combTbl keeps %d map cells after a %d-group window", cells, n)
			}
			closes++
		}
	}
	if retired < 15 || closes < 15 {
		t.Fatalf("only %d pane retirements and %d window closes observed", retired, closes)
	}
}
