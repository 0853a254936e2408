// The key-partition router: RunWith's one scale-out lane for two-input
// ops.KeyPartitionable operators (joins), on row and columnar runs alike.
//
// The splitter's port queues hold two kinds of entry. A row entry is one
// element: data from a row edge, a punctuation, or a tuple restored from
// a checkpoint. A batch entry is a column batch whose key column the
// splitter hashed once on arrival (KeyPartitionable.PartitionHashCol).
// Releasing a batch entry routes row INDEXES: each replica's task
// collects (batch, row) references over the same retained batch, so a
// split moves no data, and one task may mix row and batch entries.
// Workers push row entries through Push and contiguous same-batch runs
// through ProcessColSpan.
//
// Replies take the shape of the run's lane. On a columnar run workers
// collect dense output batches plus per-row span offsets, and the merger
// reassembles spans column-wise (Batch.AppendSpan) into pooled batches.
// A row run carries no column batches (sources transpose only when
// RunOptions.Columnar is set), so its workers collect []stream.Element
// spans and the merger hands them to edgeWriter.add: the row lane pays
// no transpose.
//
// Checkpoint sections do not depend on the lane: the splitter snapshot
// materializes still-queued batch rows into elements, and a restore puts
// them back as row entries, so row and columnar runs restore each
// other's cuts.

package exec

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"streamdb/internal/ckpt"
	"streamdb/internal/ops"
	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// noSeq marks task elements (broadcast punctuations, barriers) that
// produce no output and therefore occupy no slot in the output merge.
const noSeq = ^uint64(0)

// spanTask is one routed run of the merged input for a single join
// replica: parallel arrays where a nil batch(i) marks a row entry
// (elems[i]: data, punctuation or barrier) and a non-nil one marks
// physical row rows[i] of that batch. bs and rows stay nil until the
// task's first batch row, so row runs never allocate them. The task
// holds one batch reference per contiguous (batch, port) run; the worker
// drops it after processing the run. A task with resc set instead asks
// the worker to take part in a live re-split (see rescaleOp).
type spanTask struct {
	elems []stream.Element
	bs    []*stream.Batch
	rows  []int32
	ports []uint8
	seqs  []uint64
	resc  *rescaleOp
}

func (t *spanTask) batch(i int) *stream.Batch {
	if t.bs == nil {
		return nil
	}
	return t.bs[i]
}

// runEnd returns the end of the contiguous same-(batch, port) run that
// starts at batch entry i.
func (t *spanTask) runEnd(i int) int {
	j := i + 1
	for j < len(t.ports) && t.bs[j] == t.bs[i] && t.ports[j] == t.ports[i] {
		j++
	}
	return j
}

// spanReply carries one task's outputs back to the merger: output rows
// [ends[i-1], ends[i]) are the span of data sequence seqs[i], held in
// out on a columnar run and in outs on a row run. A reply with flush set
// carries a replica's end-of-stream flush output in outs instead; one
// with barrier set reports that the replica snapshotted at bar.
type spanReply struct {
	worker  int
	flush   bool
	barrier bool
	bar     stream.Element
	seqs    []uint64
	ends    []int32
	out     *stream.Batch
	outs    []stream.Element
	left    int // spans not yet delivered; the output recycles at zero
}

// free recycles the reply's output buffer.
func (rep *spanReply) free(r *concRun) {
	if rep.out != nil {
		rep.out.Release()
	} else {
		r.pool.Put(rep.outs)
	}
}

// queueEntry is one port-merge queue entry: a single row element, or
// (cb != nil) a column batch.
type queueEntry struct {
	e  stream.Element
	cb *batchEntry
}

// batchEntry is a queued column batch with its per-live-row partition
// hashes. rows aliases the batch's selection vector (nil = dense); pos
// is the next unreleased row. The splitter recycles batch entries, hash
// buffers included, once every row is released.
type batchEntry struct {
	b    *stream.Batch
	rows []int32
	hs   []uint64
	pos  int
}

func (cb *batchEntry) n() int {
	if cb.rows != nil {
		return len(cb.rows)
	}
	return cb.b.Rows()
}

func (cb *batchEntry) row(i int) int32 {
	if cb.rows != nil {
		return cb.rows[i]
	}
	return int32(i)
}

// runKeyRouter executes one two-input KeyPartitionable node (a join) as
// P replicas behind a hash-split router — the third scale-out lane, for
// equality-keyed stateful operators that neither Replicable (stateless)
// nor PartialAggregable (single-input aggregation) covers.
//
// Three pieces make the routed run byte-identical to the serial engine:
//
//   - A timestamp-aware port merge. The serial engine interleaves
//     sources by (head timestamp, source index); concurrent channels
//     destroy that order across the two ports. The splitter therefore
//     queues each port and re-derives the serial order: with both
//     queues non-empty it releases the smaller head timestamp (ties to
//     port 0, matching the source-index tie-break when port i is fed by
//     source i); with one queue empty it may release only elements at
//     or below the other port's punctuation watermark — the promise
//     that nothing earlier is still in flight. A port that stays silent
//     without punctuating buffers the other port until end-of-stream;
//     the lane trades that latency for exactness.
//
//   - Key-hash routing with broadcast progress. Data elements go to
//     replica hash(key) % P — both ports hash through the operator's
//     own PartitionHash, so matching tuples meet — while punctuations
//     are broadcast to every replica. When a late element is released
//     below its port's running maximum timestamp, the splitter first
//     broadcasts a synthesized punctuation at that maximum: replicas
//     that missed the higher-timestamped elements (routed elsewhere)
//     would otherwise under-expire the opposite window relative to the
//     serial run, which derives its watermark from every arrival.
//
//   - A sequence-restoring output merge. Each released data element
//     carries a global sequence number; workers report, per task, the
//     output span of every data element, and the merger releases spans
//     in sequence order. Punctuations produce no output by the
//     KeyPartitionable contract, so they need no merge slot. Flush
//     outputs (XJoin's cleanup phase) follow in replica order.
//
// Every data sequence number is reported exactly once — crashed
// replicas still account for their assigned spans with empty output —
// so the merge never stalls on a failed replica.
func (r *concRun) runKeyRouter(id NodeID, n *node, kp ops.KeyPartitionable, wg *sync.WaitGroup) {
	defer wg.Done()
	p := r.poolWidth()
	col := r.opts.Columnar
	workCh := make([]chan spanTask, p)
	for i := range workCh {
		workCh[i] = make(chan spanTask, 2)
	}
	mergeCh := make(chan spanReply, 2*p)
	var crashed atomic.Bool
	outSchema := n.op.OutSchema()

	var workWG sync.WaitGroup
	for k := 0; k < p; k++ {
		workWG.Add(1)
		go func(k int) {
			defer workWG.Done()
			op := kp.ClonePartition()
			r.restoreOp(repName(id, k), op)
			var outPool *stream.ColPool
			if col {
				outPool = stream.NewColPool(outSchema, r.opts.BatchSize)
			}
			// The open reply's output: a batch on a columnar run, an
			// element slice on a row run and for the end-of-stream flush.
			var out *stream.Batch
			var outs []stream.Element
			emit := func(o stream.Element) {
				if out != nil {
					out.AppendRow(o.Tuple)
				} else {
					outs = append(outs, o)
				}
			}
			mark := func() int32 {
				if out != nil {
					return int32(out.Rows())
				}
				return int32(len(outs))
			}
			for t := range workCh[k] {
				if t.resc != nil {
					op = r.applyRescale(t.resc, k, id, n, op,
						func() ops.Operator { return kp.ClonePartition() }, &crashed)
					continue
				}
				if col {
					out = outPool.Get()
				} else {
					outs = r.pool.Get()
				}
				seqs := make([]uint64, 0, len(t.ports))
				ends := make([]int32, 0, len(t.ports))
				var bar stream.Element
				i := 0
				if !crashed.Load() {
					func() {
						defer func() {
							if rec := recover(); rec != nil {
								r.g.recordPanic(id, n, rec)
								crashed.Store(true)
							}
						}()
						kop := op.(ops.KeyPartitionable)
						for i < len(t.ports) {
							if b := t.batch(i); b != nil {
								jj := t.runEnd(i)
								ends = kop.ProcessColSpan(int(t.ports[i]), b, t.rows[i:jj], out, ends)
								seqs = append(seqs, t.seqs[i:jj]...)
								b.Release() // the task's reference for this run
								i = jj
								continue
							}
							if e := t.elems[i]; e.IsBarrier() {
								// Snapshot this partition at the aligned cut;
								// the barrier itself is reported out-of-band so
								// it occupies no slot in the sequence merge.
								if r.ctl != nil {
									r.ctl.addSnap(e.Punct.Barrier, repName(id, k), op)
								}
								bar = e
							} else {
								op.Push(int(t.ports[i]), e, emit)
								if t.seqs[i] != noSeq {
									seqs = append(seqs, t.seqs[i])
									ends = append(ends, mark())
								}
							}
							i++
						}
					}()
				}
				// After a crash (here or earlier) the remaining sequence
				// numbers still need empty spans — the merge must not
				// stall — and the remaining batch references still need
				// dropping.
				for i < len(t.ports) {
					jj := i + 1
					if b := t.batch(i); b != nil {
						jj = t.runEnd(i)
						b.Release()
					}
					for ; i < jj; i++ {
						if t.seqs[i] != noSeq {
							seqs = append(seqs, t.seqs[i])
							ends = append(ends, mark())
						}
					}
				}
				r.pool.Put(t.elems)
				mergeCh <- spanReply{worker: k, seqs: seqs, ends: ends, out: out, outs: outs}
				out, outs = nil, nil
				if bar.Punct != nil {
					mergeCh <- spanReply{worker: k, barrier: true, bar: bar}
				}
				r.sampleMem(id, op)
			}
			outs = r.pool.Get()
			if !crashed.Load() {
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							r.g.recordPanic(id, n, rec)
							crashed.Store(true)
						}
					}()
					op.Flush(emit)
				}()
			}
			r.sampleMem(id, op)
			mergeCh <- spanReply{worker: k, flush: true, outs: outs}
		}(k)
	}
	go func() {
		workWG.Wait()
		close(mergeCh)
	}()

	// Splitter: timestamp-aware port merge, then hash routing.
	go func() {
		var qs [2]struct {
			q    []queueEntry
			head int
		}
		headTs := func(pt int) (int64, bool) {
			pq := &qs[pt]
			if pq.head >= len(pq.q) {
				return 0, false
			}
			ent := &pq.q[pq.head]
			if cb := ent.cb; cb != nil {
				return cb.b.Ts[cb.row(cb.pos)], true
			}
			return ent.e.Ts(), true
		}
		popEntry := func(pt int) {
			pq := &qs[pt]
			pq.q[pq.head] = queueEntry{}
			pq.head++
			if pq.head == len(pq.q) {
				pq.q, pq.head = pq.q[:0], 0
			}
		}
		pw := [2]int64{math.MinInt64, math.MinInt64}      // punctuation watermark per port
		maxTs := [2]int64{math.MinInt64, math.MinInt64}   // max released data ts per port
		synthed := [2]int64{math.MinInt64, math.MinInt64} // last synthesized watermark per port
		var seq uint64
		act := r.activeWidth(id)
		var hashRamp []int32
		var spare []*batchEntry
		open := make([]spanTask, p)
		// add appends one entry to replica k's open task: a row element
		// (b == nil) or row `row` of batch b.
		add := func(k, port int, e stream.Element, b *stream.Batch, row int32, s uint64) {
			t := &open[k]
			if t.ports == nil {
				t.elems = r.pool.Get()
				t.ports = make([]uint8, 0, r.opts.BatchSize)
				t.seqs = make([]uint64, 0, r.opts.BatchSize)
			}
			if b != nil {
				if t.bs == nil {
					// Every earlier entry of the task is a row entry.
					t.bs = make([]*stream.Batch, len(t.ports), r.opts.BatchSize)
					t.rows = make([]int32, len(t.ports), r.opts.BatchSize)
				}
				if l := len(t.bs); l == 0 || t.bs[l-1] != b || t.ports[l-1] != uint8(port) {
					b.Retain() // one task reference per contiguous run
				}
			}
			if t.bs != nil {
				t.bs = append(t.bs, b)
				t.rows = append(t.rows, row)
			}
			t.elems = append(t.elems, e)
			t.ports = append(t.ports, uint8(port))
			t.seqs = append(t.seqs, s)
		}
		flushTask := func(k int) {
			if len(open[k].ports) == 0 {
				return
			}
			workCh[k] <- open[k]
			open[k] = spanTask{}
		}
		broadcast := func(port int, e stream.Element) {
			// Only active replicas need progress: idle workers' state is
			// rebuilt wholesale (watermarks included) when a re-split brings
			// them in.
			for k := 0; k < act; k++ {
				add(k, port, e, nil, 0, noSeq)
				flushTask(k)
			}
		}
		// doRescale quiesces the replica set and re-splits it at the new
		// width: flush everything routed so far, hand every pool worker a
		// rescale task, wait for all snapshots, then release the restore
		// and route over the new active set. Nothing is routed while the
		// handshake runs, so each old replica snapshots at a task boundary
		// with no in-flight input — the same aligned-cut property the
		// checkpoint path relies on.
		doRescale := func(want int) {
			for k := 0; k < p; k++ {
				flushTask(k)
			}
			rs := &rescaleOp{sections: make([][]byte, p), newAct: want, ready: make(chan struct{})}
			rs.snapWG.Add(p)
			for k := 0; k < p; k++ {
				workCh[k] <- spanTask{resc: rs}
			}
			rs.snapWG.Wait()
			close(rs.ready)
			act = want
			atomic.StoreInt32(&r.adapt.actP[id], int32(want))
			n.stats.Replicas = want
			n.stats.Rescales++
		}
		// route sends one data row with timestamp ts and partition hash h
		// to its replica: a row element e, or row `row` of batch b.
		route := func(port int, ts int64, h uint64, e stream.Element, b *stream.Batch, row int32) {
			n.stats.In++
			if ts < maxTs[port] && maxTs[port] > synthed[port] {
				// Late element: replicas owning other keys saw none of the
				// higher timestamps — restore the implicit watermark the
				// serial run would have derived from them. The broadcast
				// flushes every open task; routing continues into fresh
				// ones.
				synthed[port] = maxTs[port]
				broadcast(port, stream.Punct(&stream.Punctuation{Ts: maxTs[port]}))
			} else if ts > maxTs[port] {
				maxTs[port] = ts
			}
			k := int(h % uint64(act))
			n.stats.Routed[k]++
			add(k, port, e, b, row, seq)
			seq++
			if len(open[k].ports) >= r.opts.BatchSize {
				flushTask(k)
			}
		}
		// releaseHead routes a maximal prefix of the head entry whose
		// timestamps satisfy the release bound (strict: ts < limit,
		// otherwise ts <= limit). The head is known releasable, so at
		// least one element always routes — progress is guaranteed.
		releaseHead := func(pt int, limit int64, strict bool) {
			ent := &qs[pt].q[qs[pt].head]
			cb := ent.cb
			if cb == nil {
				if e := ent.e; e.IsPunct() {
					n.stats.In++
					if e.Punct.Ts > synthed[pt] {
						synthed[pt] = e.Punct.Ts
					}
					broadcast(pt, e)
				} else {
					route(pt, e.Tuple.Ts, kp.PartitionHash(pt, e.Tuple), e, nil, 0)
				}
				popEntry(pt)
				return
			}
			nn := cb.n()
			for cb.pos < nn {
				r32 := cb.row(cb.pos)
				ts := cb.b.Ts[r32]
				if strict {
					if ts >= limit {
						break
					}
				} else if ts > limit {
					break
				}
				route(pt, ts, cb.hs[cb.pos], stream.Element{}, cb.b, r32)
				cb.pos++
			}
			if cb.pos == nn {
				cb.b.Release() // the splitter's queue reference
				*cb = batchEntry{hs: cb.hs[:0]}
				spare = append(spare, cb)
				popEntry(pt)
			}
		}
		release := func(closed bool) {
			for {
				t0, ok0 := headTs(0)
				t1, ok1 := headTs(1)
				switch {
				case ok0 && ok1:
					// Smaller head timestamp first, ties to port 0.
					// Releasing a run is exact because the bounding head of
					// the other port does not move while this port routes.
					if t1 < t0 {
						releaseHead(1, t0, true)
					} else {
						releaseHead(0, t1, false)
					}
				case ok0 || ok1:
					// The other port is empty: release up to its
					// punctuation watermark, or everything once the input
					// has closed.
					pt, ts := 0, t0
					if ok1 {
						pt, ts = 1, t1
					}
					limit := pw[1-pt]
					if closed {
						limit = math.MaxInt64
					} else if ts > limit {
						return
					}
					releaseHead(pt, limit, false)
				default:
					return
				}
			}
		}
		enqueueCol := func(port int, b *stream.Batch) {
			var cb *batchEntry
			if l := len(spare); l > 0 {
				cb, spare = spare[l-1], spare[:l-1]
			} else {
				cb = new(batchEntry)
			}
			nr := b.N()
			if cap(cb.hs) < nr {
				cb.hs = make([]uint64, nr)
			}
			cb.b, cb.rows, cb.hs = b, b.Sel, cb.hs[:nr]
			hrows := b.Sel
			if hrows == nil {
				if cap(hashRamp) < nr {
					hashRamp = make([]int32, nr)
				}
				hrows = hashRamp[:nr]
				for i := range hrows {
					hrows[i] = int32(i)
				}
			}
			kp.PartitionHashCol(port, b, hrows, cb.hs)
			qs[port].q = append(qs[port].q, queueEntry{cb: cb})
		}
		if r.restore != nil {
			// The port-merge buffers are part of the cut: elements that
			// had arrived but could not yet be released in serial order.
			// They re-enter as row entries whichever lane wrote them.
			if data := r.restore.Section(splitName(id)); data != nil {
				dec := ckpt.NewDecoder(data)
				for pt := 0; pt < 2; pt++ {
					cnt := int(dec.Uvarint())
					for i := 0; i < cnt; i++ {
						qs[pt].q = append(qs[pt].q, queueEntry{e: dec.Element()})
					}
				}
				for pt := 0; pt < 2; pt++ {
					pw[pt] = dec.Varint()
					maxTs[pt] = dec.Varint()
					synthed[pt] = dec.Varint()
				}
				if dec.Err() != nil {
					r.restoreFailed(fmt.Errorf("exec: restore %s: %w", splitName(id), dec.Err()))
				}
			}
		}
		var snapRow tuple.Tuple
		var snapVals []tuple.Value
		snapshotQueues := func(epoch int64) {
			// Still-queued batch rows are materialized into elements, so
			// the section bytes are the same whichever lane queued them.
			enc := &ckpt.Encoder{}
			for pt := 0; pt < 2; pt++ {
				total := 0
				for _, ent := range qs[pt].q[qs[pt].head:] {
					if cb := ent.cb; cb != nil {
						total += cb.n() - cb.pos
					} else {
						total++
					}
				}
				enc.Uvarint(uint64(total))
				for _, ent := range qs[pt].q[qs[pt].head:] {
					cb := ent.cb
					if cb == nil {
						enc.Element(ent.e)
						continue
					}
					if cap(snapVals) < len(cb.b.Cols) {
						snapVals = make([]tuple.Value, len(cb.b.Cols))
					}
					snapRow.Vals = snapVals[:len(cb.b.Cols)]
					for x := cb.pos; x < cb.n(); x++ {
						cb.b.GatherRow(int(cb.row(x)), &snapRow)
						enc.Element(stream.Tup(&snapRow))
					}
				}
			}
			for pt := 0; pt < 2; pt++ {
				enc.Varint(pw[pt])
				enc.Varint(maxTs[pt])
				enc.Varint(synthed[pt])
			}
			r.ctl.addBytes(epoch, splitName(id), enc.Bytes())
		}
		kbars := 0
		for m := range r.chans[id] {
			if r.adapt != nil {
				if want := int(atomic.LoadInt32(&r.adapt.wantP[id])); want != act && want >= 1 && want <= p {
					doRescale(want)
				}
			}
			if m.col != nil {
				atomic.AddInt64(&r.pending[id], -int64(m.col.N()))
				n.stats.Batches++
				if m.col.N() == 0 {
					m.col.Release()
					continue
				}
				enqueueCol(m.port, m.col)
				release(false)
				continue
			}
			atomic.AddInt64(&r.pending[id], -int64(len(m.elems)))
			for _, e := range m.elems {
				if e.IsBarrier() {
					kbars++
					if kbars == r.inw[id] {
						kbars = 0
						// Push everything releasable to the replicas, then
						// snapshot what must stay buffered and broadcast the
						// barrier so each partition cuts after its share.
						release(false)
						if r.ctl != nil {
							snapshotQueues(e.Punct.Barrier)
						}
						for k := 0; k < p; k++ {
							add(k, m.port, e, nil, 0, noSeq)
							flushTask(k)
						}
					}
					continue
				}
				if e.IsPunct() && e.Punct.Ts > pw[m.port] {
					pw[m.port] = e.Punct.Ts
				}
				qs[m.port].q = append(qs[m.port].q, queueEntry{e: e})
			}
			r.pool.Put(m.elems)
			release(false)
		}
		release(true)
		for k := 0; k < p; k++ {
			flushTask(k)
		}
		for _, c := range workCh {
			close(c)
		}
	}()

	// Merger: restore global data-sequence order across replicas. On a
	// columnar run spans reassemble column-wise into pooled batches; on a
	// row run they go element by element into the edge writer.
	w := r.newEdgeWriter(n.out, id)
	var mpool *stream.ColPool
	if col {
		mpool = stream.NewColPool(outSchema, r.opts.BatchSize)
	}
	var cur *stream.Batch
	flushCur := func() {
		if cur == nil {
			return
		}
		b := cur
		cur = nil
		w.addBatch(b) // addBatch releases empty batches itself
	}
	type span struct {
		rep    *spanReply
		lo, hi int32
	}
	deliver := func(s span) {
		if s.rep.out != nil {
			if s.hi > s.lo {
				if cur == nil {
					cur = mpool.Get()
				}
				cur.AppendSpan(s.rep.out, int(s.lo), int(s.hi))
				n.stats.Out += int64(s.hi - s.lo)
				if cur.Rows() >= r.opts.BatchSize {
					flushCur()
				}
			}
		} else {
			for _, e := range s.rep.outs[s.lo:s.hi] {
				n.stats.Out++
				w.add(e)
			}
		}
		s.rep.left--
		if s.rep.left == 0 {
			s.rep.free(r)
		}
	}
	held := make(map[uint64]span)
	var next uint64
	flushes := make([][]stream.Element, p)
	kmbar := 0
	for rep := range mergeCh {
		if rep.barrier {
			kmbar++
			if kmbar == p {
				kmbar = 0
				flushCur() // the barrier must not overtake merged output
				w.add(rep.bar)
			}
			continue
		}
		if rep.flush {
			flushes[rep.worker] = rep.outs
			continue
		}
		if len(rep.seqs) == 0 {
			rep.free(r)
			continue
		}
		rp := new(spanReply)
		*rp = rep
		rp.left = len(rp.seqs)
		var lo int32
		for i, s := range rp.seqs {
			sp := span{rep: rp, lo: lo, hi: rp.ends[i]}
			lo = rp.ends[i]
			if s != next {
				held[s] = sp
				continue
			}
			deliver(sp)
			next++
			for {
				h, ok := held[next]
				if !ok {
					break
				}
				delete(held, next)
				deliver(h)
				next++
			}
		}
	}
	// Every sequence number is reported exactly once, so nothing is left
	// held; be defensive anyway and drain in order.
	for len(held) > 0 {
		h, ok := held[next]
		if !ok {
			break
		}
		delete(held, next)
		deliver(h)
		next++
	}
	flushCur()
	// Flush outputs last, in replica order: deterministic, and correct —
	// a flush can only depend on the complete input, which precedes it.
	for _, fo := range flushes {
		if fo == nil {
			continue
		}
		for _, e := range fo {
			n.stats.Out++
			w.add(e)
		}
		r.pool.Put(fo)
	}
	w.flush()
	r.closeDownstream(n.out)
}

// applyRescale is one pool worker's half of a live key-partition
// re-split: snapshot the current replica into its section slot, signal
// the splitter, wait for the full section set, then rebuild this
// worker's slice of the key space at the new width with a fresh clone.
// Errors and panics detach the node but always complete the handshake
// (Done before any return), so the quiesced splitter cannot deadlock on
// a failed replica. Workers beyond the new active width come back with
// an empty clone — their old tuples now live under other replicas'
// hashes.
func (r *concRun) applyRescale(rs *rescaleOp, k int, id NodeID, n *node, op ops.Operator, clone func() ops.Operator, crashed *atomic.Bool) ops.Operator {
	var data []byte
	if !crashed.Load() {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					r.g.recordPanic(id, n, rec)
					crashed.Store(true)
				}
			}()
			if s, ok := op.(ckpt.Snapshotter); ok {
				enc := &ckpt.Encoder{}
				if err := s.Snapshot(enc); err != nil {
					panic(err)
				}
				data = enc.Bytes()
			}
		}()
	}
	rs.sections[k] = data
	rs.snapWG.Done()
	<-rs.ready
	if crashed.Load() {
		return op
	}
	nop := clone()
	if k < rs.newAct {
		if sr, ok := nop.(ops.StateRescaler); ok {
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						r.g.recordPanic(id, n, rec)
						crashed.Store(true)
					}
				}()
				if err := sr.RestorePartition(rs.sections, k, rs.newAct); err != nil {
					panic(err)
				}
			}()
			if crashed.Load() {
				return op
			}
		}
	}
	return nop
}
