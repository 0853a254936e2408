package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"streamdb"
	"streamdb/internal/exec"
	"streamdb/internal/query"
	"streamdb/internal/stream"
)

// oracle runs sql on the serial engine — exec.Graph.Run over
// query.Compile and Plan.Build — and returns the hash of every result
// tuple in emission order, with the run's wall time.
func oracle(sql string, inputs []input) ([]uint64, time.Duration, error) {
	cat := query.NewCatalog()
	srcs := map[string]stream.Source{}
	for _, in := range inputs {
		cat.Register(in.name, in.schema)
		srcs[in.name] = stream.FromTuples(in.schema, in.tuples...)
	}
	t0 := time.Now()
	q, err := query.Parse(sql)
	if err != nil {
		return nil, 0, fmt.Errorf("oracle: %w", err)
	}
	plan, err := query.Compile(q, cat)
	if err != nil {
		return nil, 0, fmt.Errorf("oracle: %w", err)
	}
	var want []uint64
	g := exec.NewGraph(func(e stream.Element) {
		if !e.IsPunct() {
			want = append(want, hashTuple(e.Tuple))
		}
	})
	if err := plan.Build(g, srcs); err != nil {
		return nil, 0, fmt.Errorf("oracle: %w", err)
	}
	g.Run(-1)
	if err := g.Err(); err != nil {
		return nil, 0, fmt.Errorf("oracle: %w", err)
	}
	return want, time.Since(t0), nil
}

// hashTuple digests a tuple's timestamp and every value bit for bit:
// kind, integer payload, float bits and string bytes.
func hashTuple(t *streamdb.Tuple) uint64 {
	h := mix(uint64(t.Ts))
	for _, v := range t.Vals {
		h = mix(h ^ uint64(v.Kind)<<56 ^ v.Raw())
		if f := math.Float64bits(v.Fl()); f != 0 {
			h = mix(h ^ f)
		}
		for _, c := range []byte(v.Str()) {
			h = mix(h ^ uint64(c))
		}
	}
	return h
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// compareInOrder counts result positions that differ from the oracle,
// plus missing or extra results.
func compareInOrder(want, got []uint64) int64 {
	var bad int64
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			bad++
		}
	}
	if len(want) > len(got) {
		bad += int64(len(want) - len(got))
	} else {
		bad += int64(len(got) - len(want))
	}
	return bad
}

// compareMultiset counts results the oracle has and got lacks, plus
// results got has beyond the oracle's (duplicates or strangers). Both
// slices are sorted in place.
func compareMultiset(want, got []uint64) int64 {
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	var bad int64
	i, j := 0, 0
	for i < len(want) && j < len(got) {
		switch {
		case want[i] == got[j]:
			i++
			j++
		case want[i] < got[j]:
			bad++
			i++
		default:
			bad++
			j++
		}
	}
	return bad + int64(len(want)-i) + int64(len(got)-j)
}
