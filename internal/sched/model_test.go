package sched

// One reference model of the fair queue, run in lockstep with a Fair. A
// script of ops — push, claim, release, requeue, yield, cancel (whole or
// in its two halves), close, drain — drives both; after every op the
// harness compares the claimed entry, Len and Pending, every flow's
// deficit, busy flag and live entries in order, the cursor and every
// entry's state, and holds each deficit under the largest cost plus one
// top-up. The queue tests the model subsumes are saved scripts in
// testdata/fuzz/FuzzServingQueue: go test plays each as a subtest
// FuzzServingQueue/<name>, and the fuzzer explores from them.

import (
	"errors"
	"slices"
	"testing"
)

// refEntry is one pushed entry as the model sees it.
type refEntry struct {
	flow  int
	cost  int64
	state int32
	owed  bool // its cancel CAS was won and its uncount has not run
}

// refFlow is one flow as the model sees it: a cancelled entry leaves its
// FIFO at once.
type refFlow struct {
	fifo            []int // live queued entries, head first
	pending         int   // those, plus cancelled ones still owed an uncount
	deficit, weight int64
	busy            bool
}

// refQueue is the DRR the package documents, over plain slices.
type refQueue struct {
	ents   []refEntry
	flows  [modelFlows]refFlow
	cursor int
	closed bool
}

// claim is Next's choice. A scan from the cursor takes the first free
// flow whose head fits its deficit; a free flow with nothing queued
// forfeits its deficit. Only when no free flow with work can afford its
// head does each of them gain quantum×weight, and the scan repeats. A
// claim that empties its flow resets the flow's deficit to 0. It returns
// -1 when no free flow has work.
func (m *refQueue) claim() int {
	for {
		eligible := false
		for off := range modelFlows {
			i := (m.cursor + off) % modelFlows
			fl := &m.flows[i]
			if fl.busy || len(fl.fifo) == 0 {
				if !fl.busy {
					fl.deficit = 0
				}
				continue
			}
			k := fl.fifo[0]
			if eligible = true; fl.deficit < m.ents[k].cost {
				continue
			}
			fl.fifo, fl.pending, fl.deficit = fl.fifo[1:], fl.pending-1, fl.deficit-m.ents[k].cost
			if len(fl.fifo) == 0 {
				fl.deficit = 0
			}
			fl.busy, m.cursor, m.ents[k].state = true, (i+1)%modelFlows, stateClaimed
			return k
		}
		if !eligible {
			return -1
		}
		for i := range m.flows {
			if fl := &m.flows[i]; !fl.busy && len(fl.fifo) > 0 {
				fl.deficit += modelQuantum * fl.weight
			}
		}
	}
}

// cancel flips a queued entry to cancelled; owed leaves its count for a
// later uncount, as Cancel's CAS alone does.
func (m *refQueue) cancel(k int, owed bool) bool {
	e := &m.ents[k]
	if e.state != stateQueued {
		return false
	}
	fl := &m.flows[e.flow]
	e.state, e.owed = stateCanceled, owed
	fl.fifo = slices.DeleteFunc(fl.fifo, func(j int) bool { return j == k })
	if !owed {
		fl.pending--
	}
	return true
}

// requeue puts a claimed entry back at its flow's head with its cost
// refunded. With tail (a yield) it goes to the tail instead, at a new
// cost and with no refund — or, into a closed queue, is settled
// cancelled.
func (m *refQueue) requeue(k int, tail bool, cost int64) bool {
	e, fl := &m.ents[k], &m.flows[m.ents[k].flow]
	switch {
	case e.state != stateClaimed:
		return false
	case !tail:
		fl.fifo, fl.deficit = append([]int{k}, fl.fifo...), fl.deficit+e.cost
	case m.closed:
		e.state = stateCanceled
		return false
	default:
		fl.fifo, e.cost = append(fl.fifo, k), max(cost, 1)
	}
	e.state = stateQueued
	fl.pending++
	return true
}

// drain cancels every live queued entry, flow by flow, head first.
func (m *refQueue) drain() (out []int) {
	for i := range m.flows {
		fl := &m.flows[i]
		for _, k := range fl.fifo {
			m.ents[k].state = stateCanceled
		}
		out, fl.pending, fl.fifo = append(out, fl.fifo...), fl.pending-len(fl.fifo), nil
	}
	return out
}

// The scripts' queue: three flows weighted 1:3:1, so flows 0 and 1 test
// weights and flows 0 and 2 test costs at equal weight; a depth scripts
// can fill by hand; a quantum near the scripts' costs.
const (
	modelFlows   = 3
	modelDepth   = 8
	modelQuantum = 64
	modelWorkers = 3
)

var (
	modelWeights = []int{1, 3, 1}
	// modelCosts are the costs a digit names: 0 is charged as 1, and the
	// rest sit around one quantum or far above it.
	modelCosts = [10]int64{0, 1, 7, 32, 63, 64, 65, 100, 1000, 4000}
)

// FuzzServingQueue plays a script against the model. A script is a
// string of ops, each a letter followed by its operands, one decimal
// digit each (0 when missing). Bytes that name no op are skipped, so any
// byte string is a script:
//
//	p<f><c>  push at cost modelCosts[c] onto flow f%4 (flow 3 is no flow)
//	c<w>     worker w%3 claims (Next on a closed stop channel), unless it
//	         holds a flow; a claim holds the entry's flow until r<w>
//	r<w>     worker w releases the flow it holds
//	q<w>     worker w requeues the entry whose flow it holds
//	y<w><c>  worker w yields that entry, at modelCosts[c]
//	x<k>     Cancel the k-th most recent pushed entry
//	X<k>     Cancel's CAS alone on it
//	u<k>     Cancel's uncount on it, if an X won its CAS and it is owed
//	z        Close
//	d        DrainQueued
func FuzzServingQueue(f *testing.F) {
	f.Fuzz(playQueueScript)
}

func playQueueScript(t *testing.T, script []byte) {
	f, err := New(Config{Flows: modelFlows, Depth: modelDepth, Weights: modelWeights, Quantum: modelQuantum})
	if err != nil {
		t.Fatal(err)
	}
	m := &refQueue{}
	for i, w := range modelWeights {
		m.flows[i].weight = int64(w)
	}
	stop := make(chan struct{})
	close(stop)
	var (
		pushed  []*Entry
		maxCost int64 = 1
		held          = [modelWorkers]int{-1, -1, -1} // the entry whose flow each worker holds
	)
	pc := 0
	digit := func() int {
		if pc < len(script) && script[pc] >= '0' && script[pc] <= '9' {
			pc++
			return int(script[pc-1] - '0')
		}
		return 0
	}
	recent := func() int { // the k-th most recent push, -1 before any
		if k := digit(); len(pushed) > 0 {
			return len(pushed) - 1 - k%len(pushed)
		}
		return -1
	}
	for pc < len(script) {
		at, c := pc, script[pc]
		pc++
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("op %q at byte %d: "+format, append([]any{c, at}, args...)...)
		}
		switch c {
		case 'p':
			i, cost := digit()%(modelFlows+1), modelCosts[digit()]
			e, err := f.Push(i, cost, len(pushed))
			var want error
			switch {
			case i == modelFlows:
				want = ErrNoFlow
			case m.closed:
				want = ErrClosed
			case m.flows[i].pending >= modelDepth:
				want = ErrQueueFull
			}
			if !errors.Is(err, want) {
				fail("Push = %v, model says %v", err, want)
			}
			if err == nil {
				pushed = append(pushed, e)
				m.ents = append(m.ents, refEntry{flow: i, cost: max(cost, 1)})
				m.flows[i].fifo = append(m.flows[i].fifo, len(m.ents)-1)
				m.flows[i].pending++
				maxCost = max(maxCost, cost)
			}
		case 'c':
			if w := digit() % modelWorkers; held[w] < 0 {
				got := -1
				if e, ok := f.Next(stop); ok {
					got = e.Value.(int)
				}
				if held[w] = m.claim(); got != held[w] {
					fail("claimed entry %d, model claims %d", got, held[w])
				}
			}
		case 'r':
			if w := digit() % modelWorkers; held[w] >= 0 {
				f.Release(m.ents[held[w]].flow)
				m.flows[m.ents[held[w]].flow].busy, held[w] = false, -1
			}
		case 'q', 'y':
			w, cost := digit()%modelWorkers, int64(0)
			if c == 'y' {
				cost = modelCosts[digit()]
			}
			if k := held[w]; k >= 0 {
				maxCost = max(maxCost, cost)
				want := m.requeue(k, c == 'y', cost)
				if c == 'q' {
					f.Requeue(pushed[k])
				} else if got := f.Yield(pushed[k], cost); got != want {
					fail("Yield = %v, model says %v", got, want)
				}
			}
		case 'x', 'X':
			if k := recent(); k >= 0 {
				var got bool
				if c == 'x' {
					got = f.Cancel(pushed[k])
				} else {
					got = pushed[k].state.CompareAndSwap(stateQueued, stateCanceled)
				}
				if want := m.cancel(k, c == 'X'); got != want {
					fail("cancel of entry %d = %v, model says %v", k, got, want)
				}
			}
		case 'u':
			if k := recent(); k >= 0 && m.ents[k].owed {
				f.uncount(pushed[k])
				m.ents[k].owed = false
				m.flows[m.ents[k].flow].pending--
			}
		case 'z':
			f.Close()
			m.closed = true
		case 'd':
			var got []int
			for _, e := range f.DrainQueued() {
				got = append(got, e.Value.(int))
			}
			if want := m.drain(); !slices.Equal(got, want) {
				fail("DrainQueued returned entries %v, model drains %v", got, want)
			}
		default:
			continue
		}

		total := 0
		for i := range m.flows {
			if got := f.Len(i); got != m.flows[i].pending {
				fail("Len(%d) = %d, model %d", i, got, m.flows[i].pending)
			}
			total += m.flows[i].pending
		}
		if got := f.Pending(); got != total {
			fail("Pending() = %d, model %d", got, total)
		}
		for k, e := range pushed {
			if got := e.state.Load(); got != m.ents[k].state {
				fail("entry %d in state %d, model %d", k, got, m.ents[k].state)
			}
		}
		if f.cursor != m.cursor {
			fail("cursor %d, model %d", f.cursor, m.cursor)
		}
		for i := range f.flows {
			fl, ml := &f.flows[i], &m.flows[i]
			if fl.deficit != ml.deficit || fl.busy != ml.busy {
				fail("flow %d: deficit %d busy %v, model %d %v", i, fl.deficit, fl.busy, ml.deficit, ml.busy)
			}
			if bound := maxCost + modelQuantum*ml.weight; fl.deficit < 0 || fl.deficit > bound {
				fail("flow %d: deficit %d outside [0, %d]", i, fl.deficit, bound)
			}
			var live []int
			for _, e := range fl.entries {
				if e.state.Load() != stateCanceled {
					live = append(live, e.Value.(int))
				}
			}
			if !slices.Equal(live, ml.fifo) {
				fail("flow %d queues entries %v, model %v", i, live, ml.fifo)
			}
		}
	}
}
