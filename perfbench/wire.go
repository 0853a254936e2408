package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamdb"
	"streamdb/internal/dsms"
	"streamdb/internal/stream"
)

// The live workload offers a fixed rate, well below what the engine
// sustains on the filter, so it measures latency rather than capacity.
// It never depends on the commit under test.
const (
	wireRate      = 10_000 // tuples per second over both connections
	wireStreams   = 2      // generator goroutines, one connection each
	wireBatch     = 16     // streamd -mode low's default -wirebatch
	wireAddrPool  = 10_000
	latWindow     = int64(time.Second)
	wireSetupReps = 61
	filterSQL     = `select time, srcIP, destIP, length from Traffic where protocol = 6 and length > 512`
)

// wireRun is the state of one live session: the server side bound to
// the engine and the generator side writing into it.
type wireRun struct {
	srv     *dsms.SessionServer
	writers []*dsms.ReconnectWriter
	done    chan error
}

// startWire listens on loopback, binds a SessionSource for every
// stream to the engine, starts QueryInto on it and builds one
// ReconnectWriter per stream, configured as streamd's low-level node
// ships: wire v3, wirebatch 16 and library defaults otherwise.
func startWire(eng *streamdb.Engine, schema *streamdb.Schema, seed int64, sink func(*streamdb.Tuple)) (*wireRun, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	addr := ln.Addr().String()
	r := &wireRun{srv: dsms.NewSessionServer(ln, schema, dsms.SessionConfig{}), done: make(chan error, 1)}
	if err := eng.SetSource("Traffic", dsms.NewSessionSource(r.srv, wireStreams, 0)); err != nil {
		ln.Close()
		return nil, err
	}
	go func() {
		_, err := eng.QueryInto(filterSQL, -1, sink)
		r.done <- err
	}()
	for i := 0; i < wireStreams; i++ {
		w, err := dsms.NewReconnectWriter(dsms.ReconnectConfig{
			StreamID:  fmt.Sprintf("gen-%d", i),
			Dial:      func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Seed:      seed + int64(i),
			Schema:    schema,
			WireBatch: wireBatch,
		})
		if err != nil {
			return nil, err
		}
		r.writers = append(r.writers, w)
	}
	return r, nil
}

// finish waits for the query, which returns once every stream has sent
// EOS and drained through the engine.
func (r *wireRun) finish() error {
	select {
	case err := <-r.done:
		return err
	case <-time.After(60 * time.Second):
		return errors.New("wire: query did not finish within 60s of the last send")
	}
}

// genStats is what one generator goroutine saw.
type genStats struct {
	lagNs      []int64 // how late each send started against its schedule
	sendNs     int64   // time spent inside traced Sends
	sends      int64   // traced Sends
	unackedMax int
	err        error
}

// generate sends tuples on their virtual-time schedule, anchored at
// start, whatever the engine does: tuples that fall due while the
// generator sleeps or blocks go out back to back, late.
func generate(w *dsms.ReconnectWriter, tuples []*streamdb.Tuple, start time.Time, tracing *atomic.Bool, st *genStats) {
	st.lagNs = make([]int64, 0, len(tuples))
	lastPoll := time.Duration(0)
	for i := 0; i < len(tuples); {
		now := time.Since(start)
		for i < len(tuples) && tuples[i].Ts <= int64(now) {
			st.lagNs = append(st.lagNs, int64(now)-tuples[i].Ts)
			if tracing.Load() {
				t0 := time.Now()
				if err := w.Send(tuples[i]); err != nil {
					st.err = err
					return
				}
				st.sendNs += int64(time.Since(t0))
				st.sends++
			} else if err := w.Send(tuples[i]); err != nil {
				st.err = err
				return
			}
			i++
		}
		if now-lastPoll >= time.Millisecond {
			if b := w.Buffered(); b > st.unackedMax {
				st.unackedMax = b
			}
			lastPoll = now
		}
		if i < len(tuples) {
			time.Sleep(time.Duration(tuples[i].Ts) - time.Since(start))
		}
	}
	st.err = w.Close()
}

func runWire(seed int64, seconds float64, trace bool) (*outcome, error) {
	span := int64(seconds * float64(time.Second))
	per := float64(wireRate) / wireStreams
	var streams []input
	var merged []*streamdb.Tuple
	for i := 0; i < wireStreams; i++ {
		g := stream.NewTrafficStream(seed*wireStreams+int64(i), per, wireAddrPool)
		in := input{name: "Traffic", schema: g.Schema()}
		for {
			e, _ := g.Next()
			if e.Tuple.Ts > span {
				break
			}
			in.tuples = append(in.tuples, e.Tuple)
		}
		streams = append(streams, in)
		merged = append(merged, in.tuples...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Ts < merged[j].Ts })
	schema := streams[0].schema
	n := int64(len(merged))
	out := &outcome{
		params: map[string]any{
			"input_tuples": n, "offered_rate_per_s": wireRate, "connections": wireStreams,
			"wirebatch": wireBatch, "addr_pool": wireAddrPool, "window": "none", "loop": "open",
		},
		end:   map[string]float64{},
		layer: map[string]float64{},
	}

	want, serial, err := oracle(filterSQL, []input{{name: "Traffic", schema: schema, tuples: merged}})
	if err != nil {
		return nil, err
	}
	out.layer["serial.throughput_tps"] = float64(n) / serial.Seconds()

	eng := streamdb.New()
	eng.RegisterSchema("Traffic", schema)

	// Set-up is a whole zero-tuple session: listen, bind, plan and
	// build the query, both handshakes, EOS and drain. A collection
	// first keeps the input's garbage from landing in these samples.
	runtime.GC()
	var setups, compiles []float64
	for i := 0; i < wireSetupReps; i++ {
		t0 := time.Now()
		r, err := startWire(eng, schema, seed, func(*streamdb.Tuple) {})
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		errs := make([]error, len(r.writers))
		for j, w := range r.writers {
			wg.Add(1)
			go func(j int, w *dsms.ReconnectWriter) {
				defer wg.Done()
				errs[j] = w.Close()
			}(j, w)
		}
		wg.Wait()
		if err := errors.Join(append(errs, r.finish())...); err != nil {
			return nil, fmt.Errorf("setup session: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := eng.Compile(filterSQL); err != nil {
			return nil, err
		}
		compiles = append(compiles, time.Since(t0).Seconds())
	}
	out.end["setup_s"] = median(setups)
	out.layer["span.compile_ms"] = median(compiles) * 1e3

	// Latency is measured from each result's scheduled send; the first
	// second (or fifth of the run) is start-up and is left out. lat[i]
	// holds the results scheduled in the i-th latency window.
	warm := span / 5
	if warm > int64(time.Second) {
		warm = int64(time.Second)
	}
	got := make([]uint64, 0, len(want))
	lat := make([][]float64, span/latWindow+1)
	var start time.Time
	var lastResult time.Time
	var tracing atomic.Bool
	var sinkNs, sinkCalls int64
	sink := func(t *streamdb.Tuple) {
		now := time.Now()
		got = append(got, hashTuple(t))
		if t.Ts >= warm {
			w := t.Ts / latWindow
			lat[w] = append(lat[w], float64(now.Sub(start)-time.Duration(t.Ts))/1e6)
		}
		lastResult = now
		if tracing.Load() {
			sinkNs += int64(time.Since(now))
			sinkCalls++
		}
	}

	runtime.GC()
	out.layer["rt.heap_base_mb"] = float64(liveHeap()) / (1 << 20)
	r, err := startWire(eng, schema, seed, sink)
	if err != nil {
		return nil, err
	}
	var p *profiler
	prof := newCPUProfile()
	heap := watchHeap()
	rt0 := readRuntime()
	c0 := cpuTime()
	start = time.Now().Add(20 * time.Millisecond)
	gens := make([]genStats, wireStreams)
	var wg sync.WaitGroup
	for i, w := range r.writers {
		wg.Add(1)
		go func(i int, w *dsms.ReconnectWriter) {
			defer wg.Done()
			generate(w, streams[i].tuples, start, &tracing, &gens[i])
		}(i, w)
	}
	// A traced run profiles and times the second half of the schedule,
	// so the first half gives the untraced CPU cost to compare against.
	var cMid time.Duration
	var sentMid int64
	if trace {
		time.Sleep(time.Until(start.Add(time.Duration(span / 2))))
		cMid = cpuTime()
		sentMid = int64(sort.Search(len(merged), func(i int) bool { return merged[i].Ts > span/2 }))
		if p, err = startProfile(); err != nil {
			return nil, err
		}
		tracing.Store(true)
	}
	wg.Wait()
	qerr := r.finish()
	c1 := cpuTime()
	if p != nil {
		if err := p.stop(prof); err != nil {
			return nil, err
		}
	}
	runtimeDelta(rt0, readRuntime(), n, out.layer)
	out.end["peak_heap_mb"] = heap.stop()
	for i := range gens {
		if gens[i].err != nil {
			return nil, fmt.Errorf("generator %d: %w", i, gens[i].err)
		}
	}
	if qerr != nil {
		return nil, fmt.Errorf("wire query: %w", qerr)
	}

	out.attempted = n
	out.failed = compareMultiset(want, got)
	out.end["throughput_tps"] = float64(n) / lastResult.Sub(start).Seconds()
	out.end["cpu_us_per_tuple"] = float64((c1 - c0).Nanoseconds()) / 1e3 / float64(n)
	// p50 is over every sample; p99 is the median of each window's p99,
	// so one stall of the process moves one window, not the figure.
	var all, p99s []float64
	for _, l := range lat {
		all = append(all, l...)
		if len(l) >= 1000 {
			sort.Float64s(l)
			p99s = append(p99s, quantile(l, 0.99))
		}
	}
	sort.Float64s(all)
	out.end["latency_p50_ms"] = quantile(all, 0.50)
	out.end["latency_p99_ms"] = median(p99s)
	out.layer["latency.samples"] = float64(len(all))

	var lags []float64
	var sendNs, sends int64
	unacked := 0
	for _, g := range gens {
		for _, l := range g.lagNs {
			lags = append(lags, float64(l)/1e6)
		}
		sendNs += g.sendNs
		sends += g.sends
		if g.unackedMax > unacked {
			unacked = g.unackedMax
		}
	}
	sort.Float64s(lags)
	out.layer["gen.lag_p99_ms"] = quantile(lags, 0.99)
	out.layer["span.send_us"] = 0
	out.layer["span.sink_us"] = 0
	out.layer["trace.overhead"] = 0
	if trace {
		out.layer["span.send_us"] = float64(sendNs) / 1e3 / float64(sends)
		out.layer["span.sink_us"] = float64(sinkNs) / 1e3 / float64(sinkCalls)
		first := float64(cMid-c0) / float64(sentMid)
		second := float64(c1-cMid) / float64(n-sentMid)
		out.layer["trace.overhead"] = second/first - 1
		out.params["cpu_unknown_leaves"] = topUnknown(prof, 8)
	}
	prof.shares(out.layer)

	var bytes, resent int64
	for _, w := range r.writers {
		st := w.Stats()
		bytes += st.Bytes
		resent += st.Resent
	}
	ss := r.srv.Stats()
	out.layer["dsms.wire_bytes_per_tuple"] = float64(bytes) / float64(n)
	out.layer["dsms.unacked_max"] = float64(unacked)
	out.layer["dsms.resent"] = float64(resent)
	out.layer["dsms.dupes"] = float64(ss.Dupes)
	out.layer["dsms.corrupt"] = float64(ss.Corrupt)
	return out, nil
}
