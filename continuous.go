package streamdb

import (
	"fmt"

	"streamdb/internal/exec"
	"streamdb/internal/query"
	"streamdb/internal/stream"
)

// ContinuousQuery is a registered persistent query (slide 19:
// "persistent/continuous queries ... content-based filtering" in the
// Tapestry/NiagaraCQ lineage): elements are pushed in with Feed and
// results stream to the sink as soon as the operators produce them.
type ContinuousQuery struct {
	plan   *query.Plan
	graph  *exec.Graph
	queues map[string]*stream.Queue
	sink   func(*Tuple)
	closed bool
}

// RegisterContinuous compiles sql and installs it as a standing query.
// Each stream named in FROM gets a push-fed queue; results flow to sink
// incrementally on every Feed.
func (e *Engine) RegisterContinuous(sql string, sink func(*Tuple)) (*ContinuousQuery, error) {
	if sink == nil {
		return nil, fmt.Errorf("streamdb: continuous query needs a sink")
	}
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	plan, err := query.Compile(q, e.cat)
	if err != nil {
		return nil, err
	}
	cq := &ContinuousQuery{
		plan:   plan,
		queues: make(map[string]*stream.Queue),
		sink:   sink,
	}
	cq.graph = exec.NewGraph(func(el Element) {
		if !el.IsPunct() {
			sink(el.Tuple)
		}
	})
	sources := make(map[string]stream.Source)
	for _, fi := range q.From {
		sch, ok := e.cat.Lookup(fi.Stream)
		if !ok {
			return nil, fmt.Errorf("streamdb: unknown stream %q", fi.Stream)
		}
		qu := stream.NewQueue(sch)
		cq.queues[fi.Stream] = qu
		sources[fi.Stream] = qu
	}
	if err := plan.Build(cq.graph, sources); err != nil {
		return nil, err
	}
	return cq, nil
}

// Plan exposes the compiled plan (bounded-memory verdict, Explain).
func (cq *ContinuousQuery) Plan() *Plan { return cq.plan }

// Feed pushes one tuple into the named stream and runs the pipeline on
// everything currently available. Feeding multiple streams of a join:
// call Feed per arrival in timestamp order for deterministic results.
// An operator failure stops the query; Feed and Advance return it from
// then on.
func (cq *ContinuousQuery) Feed(streamName string, t *Tuple) error {
	if cq.closed {
		return fmt.Errorf("streamdb: continuous query is closed")
	}
	qu, ok := cq.queues[streamName]
	if !ok {
		return fmt.Errorf("streamdb: query does not read stream %q", streamName)
	}
	qu.Feed(stream.Tup(t))
	cq.graph.Pump(-1)
	return cq.graph.Err()
}

// Advance injects a progress punctuation on the named stream: "no more
// tuples with ordering attribute <= ts will arrive" (slide 28). Windowed
// aggregates close their due windows immediately.
func (cq *ContinuousQuery) Advance(streamName string, ts int64) error {
	if cq.closed {
		return fmt.Errorf("streamdb: continuous query is closed")
	}
	qu, ok := cq.queues[streamName]
	if !ok {
		return fmt.Errorf("streamdb: query does not read stream %q", streamName)
	}
	ord := qu.Schema().OrderingIndex()
	if ord < 0 {
		return fmt.Errorf("streamdb: stream %q has no ordering attribute", streamName)
	}
	qu.Feed(stream.Punct(stream.ProgressPunct(ts, ord, Time(ts))))
	cq.graph.Pump(-1)
	return cq.graph.Err()
}

// Close ends the query: remaining state (open windows, unbounded
// aggregates) flushes to the sink. Further Feeds error.
func (cq *ContinuousQuery) Close() {
	if cq.closed {
		return
	}
	cq.closed = true
	cq.graph.Pump(-1)
	cq.graph.Finish()
}
