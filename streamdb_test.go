package streamdb

import (
	"strings"
	"testing"
)

func trafficSchema() *Schema {
	return NewSchema("Traffic",
		Field{Name: "time", Kind: KindTime, Ordering: true},
		Field{Name: "srcIP", Kind: KindIP},
		Field{Name: "length", Kind: KindUint},
	)
}

func engineWithData(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	sch := trafficSchema()
	eng.RegisterSchema("Traffic", sch)
	var rows []*Tuple
	for i := int64(0); i < 100; i++ {
		rows = append(rows, NewTuple(i*Second,
			Time(i*Second), IP(uint32(i%4)), Uint(uint64(100+i*10))))
	}
	if err := eng.SetSource("Traffic", FromTuples(sch, rows...)); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineSelect(t *testing.T) {
	eng := engineWithData(t)
	res, err := eng.Query("select srcIP, length from Traffic where length > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 { // lengths 1010..1090
		t.Errorf("rows = %d", len(res.Rows))
	}
	if res.Schema.Fields[0].Name != "srcIP" {
		t.Errorf("schema = %s", res.Schema)
	}
}

func TestEngineAggregate(t *testing.T) {
	eng := engineWithData(t)
	res, err := eng.Query(
		"select srcIP, count(*) as cnt from Traffic [range 100] group by srcIP")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if c, _ := r.Vals[1].AsInt(); c != 25 {
			t.Errorf("count = %d, want 25", c)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	eng := New()
	if err := eng.SetSource("Nope", nil); err == nil {
		t.Error("unregistered stream accepted")
	}
	if _, err := eng.Query("select * from Nowhere"); err == nil {
		t.Error("unknown stream accepted")
	}
	if _, err := eng.Compile("not sql"); err == nil {
		t.Error("garbage accepted")
	}
	eng.RegisterSchema("T", trafficSchema())
	if _, err := eng.Query("select * from T"); err == nil {
		t.Error("query without source accepted")
	}
}

func TestEngineQueryInto(t *testing.T) {
	eng := engineWithData(t)
	n := 0
	plan, err := eng.QueryInto("select * from Traffic", 10, func(*Tuple) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("sink received %d", n)
	}
	if plan == nil || plan.OutSchema == nil {
		t.Error("plan missing")
	}
}

func TestResultFormat(t *testing.T) {
	eng := engineWithData(t)
	res, err := eng.Query("select srcIP, length from Traffic where length = 100")
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	if !strings.Contains(out, "srcIP") || !strings.Contains(out, "(1 rows)") {
		t.Errorf("format output:\n%s", out)
	}
	if !strings.Contains(out, "0.0.0.0") {
		t.Errorf("IP not rendered:\n%s", out)
	}
}

func TestCompileExposesAnalysis(t *testing.T) {
	eng := New()
	eng.RegisterSchema("Traffic", trafficSchema())
	plan, err := eng.Compile("select length, count(*) from Traffic [range 60] where length > 512 group by length")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bounded.OK {
		t.Error("unbounded grouping judged bounded")
	}
	if !strings.Contains(plan.Explain(), "bounded-memory: false") {
		t.Errorf("explain:\n%s", plan.Explain())
	}
}

// TestFrontDoorReportsOperatorFailure: a tuple missing an attribute the
// query reads panics inside the filter, and FailFast halts the graph
// with the rest of the input unread. Every entry point must say so
// instead of returning a short result with a nil error.
func TestFrontDoorReportsOperatorFailure(t *testing.T) {
	sch := NewSchema("S",
		Field{Name: "time", Kind: KindTime, Ordering: true},
		Field{Name: "v", Kind: KindInt})
	t1 := NewTuple(1, Time(1), Int(5))
	short := NewTuple(2, Time(2)) // no v
	t3 := NewTuple(3, Time(3), Int(7))
	const sql = "select time, v from S where v > 1"
	engine := func(t *testing.T) *Engine {
		eng := New()
		eng.RegisterSchema("S", sch)
		if err := eng.SetSource("S", FromTuples(sch, t1, short, t3)); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	t.Run("Query", func(t *testing.T) {
		if res, err := engine(t).Query(sql); err == nil {
			t.Fatalf("Query returned %d rows and a nil error", len(res.Rows))
		}
	})
	t.Run("QueryInto", func(t *testing.T) {
		n := 0
		if _, err := engine(t).QueryInto(sql, -1, func(*Tuple) { n++ }); err == nil {
			t.Fatalf("QueryInto delivered %d rows and returned a nil error", n)
		}
	})
	t.Run("Feed", func(t *testing.T) {
		eng := New()
		eng.RegisterSchema("S", sch)
		cq, err := eng.RegisterContinuous(sql, func(*Tuple) {})
		if err != nil {
			t.Fatal(err)
		}
		defer cq.Close()
		if err := cq.Feed("S", t1); err != nil {
			t.Fatal(err)
		}
		if err := cq.Feed("S", short); err == nil {
			t.Fatal("Feed of a failing tuple returned a nil error")
		}
		if err := cq.Advance("S", 3); err == nil {
			t.Fatal("Advance after a failure returned a nil error")
		}
	})
}
