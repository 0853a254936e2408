package main

import (
	"fmt"
	"runtime"
	"time"

	"streamdb"
	"streamdb/internal/netmon"
	"streamdb/internal/stream"
)

// input is one named stream of pre-generated tuples.
type input struct {
	name   string
	schema *streamdb.Schema
	tuples []*streamdb.Tuple
}

// replayWorkload is a closed-loop workload: each pass replays the whole
// pre-generated input through Engine.QueryInto as fast as the engine
// pulls it.
type replayWorkload struct {
	sql    string
	params map[string]any
	gen    func(seed int64) []input
}

// Inputs are bounded by virtual time, not by tuple count: every pass
// spans the same number of window lengths with the same key pool, and
// on every seed the stream ends on the same slide boundary, so the last
// windows flush the same way. A count bound made the stream end 23 or
// 24 slides in, depending on the seed, which moved the final flush (a
// fifth of pane_agg's results) and with it the median result.
//
// pane_agg delivers its results in one burst per slide. Over 240 s the
// median result fell on the edge between two bursts, so the p50 jumped
// by a slide's processing time from seed to seed; over 250 s it falls
// in the middle of a burst.
var replayWorkloads = map[string]*replayWorkload{
	"filter": {
		sql: `select time, srcIP, destIP, length from Traffic where protocol = 6 and length > 512`,
		params: map[string]any{
			"virtual_s": 300, "rate_per_s": 1000, "addr_pool": 10_000, "window": "none",
		},
		gen: func(seed int64) []input {
			return []input{traffic(seed, 300, 1000, 10_000)}
		},
	},
	"pane_agg": {
		sql: `select srcIP, count(*), sum(length) from Traffic [range 60 slide 10] group by srcIP`,
		params: map[string]any{
			"virtual_s": 250, "rate_per_s": 500, "addr_pool": 100_000,
			"window": "range 60 slide 10", "window_lengths": 4.2,
		},
		gen: func(seed int64) []input {
			return []input{traffic(seed, 250, 500, 100_000)}
		},
	},
	"rtt_join": {
		sql: `select ip4(S.destIP) as server, A.tstmp - S.tstmp as rtt
			from tcp_syn [range 30] S, tcp_syn_ack [range 30] A
			where S.srcIP = A.destIP and S.destIP = A.srcIP
			  and S.srcPort = A.destPort and S.destPort = A.srcPort`,
		params: map[string]any{
			"handshakes": 150_000, "rate_per_s": 1000, "servers": 8, "loss": 0.03,
			"window": "range 30", "window_lengths": 5,
		},
		gen: func(seed int64) []input {
			ht := netmon.NewHandshakeTrace(netmon.HandshakeConfig{
				Seed: seed, Rate: 1000, RTTMu: -2.5, RTTSigma: 0.8, LossProb: 0.03, Servers: 8,
			}, 150_000)
			return []input{drain("tcp_syn", ht.Syn), drain("tcp_syn_ack", ht.Ack)}
		},
	},
}

// traffic generates the Traffic stream's tuples stamped before
// seconds of virtual time.
func traffic(seed int64, seconds int64, rate float64, pool int) input {
	g := stream.NewTrafficStream(seed, rate, pool)
	in := input{name: "Traffic", schema: g.Schema()}
	for {
		e, _ := g.Next()
		if e.Tuple.Ts >= seconds*int64(time.Second) {
			return in
		}
		in.tuples = append(in.tuples, e.Tuple)
	}
}

// drain materializes a finite source's tuples.
func drain(name string, src streamdb.Source) input {
	in := input{name: name, schema: src.Schema()}
	for {
		e, ok := src.Next()
		if !ok {
			return in
		}
		if !e.IsPunct() {
			in.tuples = append(in.tuples, e.Tuple)
		}
	}
}

// latencyStride spaces the results whose delivery time is recorded.
const latencyStride = 16

// setupReps is how many zero-tuple queries are timed before each pass.
const setupReps = 8

func runReplay(w *replayWorkload, seed int64, seconds float64, trace bool) (*outcome, error) {
	inputs := w.gen(seed)
	var n int64
	for _, in := range inputs {
		n += int64(len(in.tuples))
	}
	out := &outcome{params: w.params, end: map[string]float64{}, layer: map[string]float64{}}
	out.params["input_tuples"] = n

	want, serial, err := oracle(w.sql, inputs)
	if err != nil {
		return nil, err
	}
	out.layer["serial.throughput_tps"] = float64(n) / serial.Seconds()

	eng := streamdb.New()
	for _, in := range inputs {
		eng.RegisterSchema(in.name, in.schema)
	}

	// One source per stream, rewound before each pass, so no input is
	// rebuilt inside the timed region.
	srcs := make([]streamdb.Source, len(inputs))
	for i, in := range inputs {
		srcs[i] = streamdb.FromTuples(in.schema, in.tuples...)
	}
	// In a closed loop the whole input is offered when the pass starts,
	// so a result's latency is its delivery time since then. Every
	// latencyStride-th result is timed, to keep the sink cheap.
	got := make([]uint64, 0, len(want))
	var passStart time.Time
	var delivered []float64
	sink := func(t *streamdb.Tuple) {
		if len(got)%latencyStride == 0 {
			delivered = append(delivered, float64(time.Since(passStart).Nanoseconds())/1e6)
		}
		got = append(got, hashTuple(t))
	}
	var sinkNs, sinkCalls int64
	timedSink := func(t *streamdb.Tuple) {
		t0 := time.Now()
		sink(t)
		sinkNs += int64(time.Since(t0))
		sinkCalls++
	}

	// bind rewinds every source and binds it for the next pass.
	bind := func() error {
		for i, in := range inputs {
			srcs[i].(interface{ Reset() }).Reset()
			if err := eng.SetSource(in.name, srcs[i]); err != nil {
				return err
			}
		}
		got, delivered = got[:0], delivered[:0]
		return nil
	}
	// One untimed pass warms caches, the heap and lazy set-up; its
	// output is checked like every other pass's.
	if err := bind(); err != nil {
		return nil, err
	}
	passStart = time.Now()
	if _, err := eng.QueryInto(w.sql, -1, sink); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	out.attempted += n
	out.failed += compareInOrder(want, got)

	// Per-pass rates spread widely within one run (1.4M–2.5M tuples/s on
	// filter). Totals over all passes, and means of per-pass latencies,
	// weigh slow passes evenly; across the windows of one long run they
	// spread 10–30% less than medians over passes.
	var passes, passesTraced int
	var wallSum, wallTraced, cpuSum time.Duration
	var p50Sum, p99Sum float64
	var samples int
	prof := newCPUProfile()
	runtime.GC()
	out.layer["rt.heap_base_mb"] = float64(liveHeap()) / (1 << 20)
	heap := watchHeap()
	rt0, warm := readRuntime(), out.attempted
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var setups, compiles []float64
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		// Set-up is sampled between passes, so its median spans the run.
		if err := measureSetup(eng, w.sql, inputs, &setups, &compiles); err != nil {
			return nil, err
		}
		if err := bind(); err != nil {
			return nil, err
		}
		traced := trace && pass%2 == 1
		var p *profiler
		s := sink
		if traced {
			s = timedSink
			if p, err = startProfile(); err != nil {
				return nil, err
			}
		}
		c0 := cpuTime()
		passStart = time.Now()
		if _, err := eng.QueryInto(w.sql, -1, s); err != nil {
			return nil, fmt.Errorf("pass %d: %w", pass, err)
		}
		wall, used := time.Since(passStart), cpuTime()-c0
		if traced {
			if err := p.stop(prof); err != nil {
				return nil, err
			}
			passesTraced++
			wallTraced += wall
		} else {
			passes++
			wallSum += wall
			cpuSum += used
			// delivered is already in ascending order.
			p50Sum += quantile(delivered, 0.50)
			p99Sum += quantile(delivered, 0.99)
			samples += len(delivered)
		}
		out.attempted += n
		out.failed += compareInOrder(want, got)
	}
	runtimeDelta(rt0, readRuntime(), out.attempted-warm, out.layer)
	out.end["peak_heap_mb"] = heap.stop()
	out.params["passes"] = passes + passesTraced // after the warm-up pass

	out.end["setup_s"] = median(setups)
	out.layer["span.compile_ms"] = median(compiles) * 1e3
	tput := float64(int64(passes)*n) / wallSum.Seconds()
	out.end["throughput_tps"] = tput
	out.end["cpu_us_per_tuple"] = float64(cpuSum.Nanoseconds()) / 1e3 / float64(int64(passes)*n)
	out.end["latency_p50_ms"] = p50Sum / float64(passes)
	out.end["latency_p99_ms"] = p99Sum / float64(passes)
	out.layer["latency.samples"] = float64(samples)

	prof.shares(out.layer)
	out.layer["span.sink_us"] = 0
	if sinkCalls > 0 {
		out.layer["span.sink_us"] = float64(sinkNs) / 1e3 / float64(sinkCalls)
	}
	out.layer["trace.overhead"] = 0
	if trace {
		out.layer["trace.overhead"] = 1 - float64(int64(passesTraced)*n)/wallTraced.Seconds()/tput
		out.params["cpu_unknown_leaves"] = topUnknown(prof, 8)
	}
	// Only the live workload has a wire and a generator.
	for _, k := range []string{"span.send_us", "gen.lag_p99_ms", "dsms.wire_bytes_per_tuple",
		"dsms.unacked_max", "dsms.resent", "dsms.dupes", "dsms.corrupt"} {
		out.layer[k] = 0
	}
	return out, nil
}

// measureSetup times the entry point with no tuples to process — parse,
// plan, graph build and start-up through QueryInto over empty sources —
// and Engine.Compile alone, setupReps times each.
func measureSetup(eng *streamdb.Engine, sql string, inputs []input, setups, compiles *[]float64) error {
	for i := 0; i < setupReps; i++ {
		for _, in := range inputs {
			if err := eng.SetSource(in.name, streamdb.FromTuples(in.schema)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if _, err := eng.QueryInto(sql, -1, func(*streamdb.Tuple) {}); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		*setups = append(*setups, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := eng.Compile(sql); err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		*compiles = append(*compiles, time.Since(t0).Seconds())
	}
	return nil
}
