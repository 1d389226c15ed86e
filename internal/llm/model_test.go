package llm

// One reference model of the serving engine, run in lockstep with an
// Engine. What the engine adds on top of its fair queue is modelled
// here: admission against the KV budget and the session slots, the
// queue op each call should make (a prefill charged its prompt, a
// completed step yielded to the tail at a decode step's cost, a requeue
// at the head unless its session was released, a release cancelling a
// queued step), and the step log.
// The queue itself is a second sched.Fair driven op for op —
// FuzzServingQueue holds that one to its own reference — so the model
// names the step each claim must return. After every op the harness
// compares KV in use with the sum of live reservations, the free slots
// with the model's (and every slot free or live exactly once), Pending,
// and the step log, in settle order; at every claim the session, chunk
// and kind. The engine tests the model subsumes are saved scripts in
// testdata/fuzz/FuzzServingEngine: go test plays each as a subtest
// FuzzServingEngine/<name>, and the fuzzer explores from them.

import (
	"errors"
	"slices"
	"testing"

	"ccai/internal/sched"
)

// refSession is one admitted session as the model sees it.
type refSession struct {
	s              *SessionState
	entry          *sched.Entry // its step in the model's queue; nil before Start and once done
	next           int          // the next chunk to produce
	done, released bool
}

// refEngine is the engine's contract over plain values and a queue of
// its own.
type refEngine struct {
	q      *sched.Fair
	stop   chan struct{}
	ss     []*refSession
	free   []int // session slots, popped from the end
	log    []StepRecord
	closed bool
}

// claim is Next's choice: the queue's next entry, skipping (and
// releasing) any whose session finished or was released after its step
// was queued.
func (m *refEngine) claim() (*refSession, *sched.Entry) {
	for {
		e, ok := m.q.Next(m.stop)
		if !ok {
			return nil, nil
		}
		if r := m.ss[e.Value.(int)]; !r.done && !r.released {
			return r, e
		}
		m.q.Release(e.Flow)
	}
}

// settle logs a claimed step once, when it completes or fails, and
// re-arms the session at its queue's tail while chunks remain and the
// queue takes it.
func (m *refEngine) settle(r *refSession, e *sched.Entry, ok bool) bool {
	m.log = append(m.log, StepRecord{Session: r.s.ID, Kind: stepKind(r.next), Chunk: r.next})
	r.next++
	more := ok && !r.done && r.next < r.s.Cfg.Chunks() && m.q.Yield(e, r.s.stepCost())
	if !more {
		r.done, r.entry = true, nil
	}
	m.q.Release(e.Flow)
	return more
}

// kvInUse is the sum of the live sessions' reservations.
func (m *refEngine) kvInUse() (n int64) {
	for _, r := range m.ss {
		if !r.released {
			n += r.s.KVBytes
		}
	}
	return n
}

// stepKind is what producing chunk is: chunk 0 comes out of prefill.
func stepKind(chunk int) StepKind {
	if chunk == 0 {
		return StepPrefill
	}
	return StepDecode
}

// modelShapes are the sessions a digit admits: prompt tokens, tokens to
// generate and KV bytes per token. Chunks are 4 tokens. Shapes 0–5 are
// small; two of shape 6 fill most of the default 1 MiB budget; 7 and 8
// carry prefills that cost more than one quantum; 9 never fits.
var modelShapes = [10]struct {
	prompt, newTokens int
	kvPerToken        int64
}{
	{1, 1, 64}, {2, 4, 64}, {4, 8, 64}, {8, 16, 64}, {3, 13, 64},
	{16, 32, 64}, {4, 8, 40 << 10}, {60, 4, 4 << 10}, {128, 12, 64}, {1, 1, 1 << 20},
}

const (
	modelWorkers = 3
	modelBudget  = 1 << 20 // EngineConfig's default
)

// errStarted stands for Start's error on a session already started,
// which wraps no sentinel.
var errStarted = errors.New("already started")

// FuzzServingEngine plays a script against the model. A script is a
// string of ops, each a letter followed by one decimal digit (0 when
// missing); bytes that name no op are skipped, so any byte string is a
// script:
//
//	a<d>  Admit a session of modelShapes[d]
//	s<k>  Start the k-th most recently admitted session
//	c<w>  worker w%3 claims a step (Next on a closed stop channel), unless
//	      it holds one
//	d<w>  worker w completes its step
//	f<w>  worker w fails its step
//	q<w>  worker w requeues its step (dropped if its session was released)
//	r<k>  Release the k-th most recently admitted session, its step
//	      claimed or not
//	z     Close
func FuzzServingEngine(f *testing.F) {
	f.Fuzz(playEngineScript)
}

func playEngineScript(t *testing.T, script []byte) {
	eng, err := NewEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sched.New(sched.Config{Flows: MaxSessions, Depth: 2, Quantum: stepQuantum})
	if err != nil {
		t.Fatal(err)
	}
	m := &refEngine{q: q, stop: make(chan struct{})}
	close(m.stop)
	for i := MaxSessions - 1; i >= 0; i-- {
		m.free = append(m.free, i)
	}
	var workers [modelWorkers]struct {
		st    *Step
		r     *refSession
		entry *sched.Entry
	}
	pc := 0
	digit := func() int {
		if pc < len(script) && script[pc] >= '0' && script[pc] <= '9' {
			pc++
			return int(script[pc-1] - '0')
		}
		return 0
	}
	recent := func() *refSession { // the k-th most recent admission, nil before any
		if k := digit(); len(m.ss) > 0 {
			return m.ss[len(m.ss)-1-k%len(m.ss)]
		}
		return nil
	}
	for pc < len(script) {
		at, c := pc, script[pc]
		pc++
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("op %q at byte %d: "+format, append([]any{c, at}, args...)...)
		}
		switch c {
		case 'a':
			sh := modelShapes[digit()]
			cfg := Config{MaxNewTokens: sh.newTokens, ChunkTokens: 4, KVBytesPerToken: sh.kvPerToken}
			s, err := eng.Admit(cfg, sh.prompt, nil)
			kv := cfg.KVBytes(sh.prompt)
			var want error
			switch {
			case m.closed:
				want = ErrEngineClosed
			case m.kvInUse()+kv > modelBudget:
				want = ErrKVBudget
			case len(m.free) == 0:
				want = sched.ErrQueueFull
			}
			if !errors.Is(err, want) {
				fail("Admit = %v, model says %v", err, want)
			}
			if err == nil {
				slot := m.free[len(m.free)-1]
				if m.free = m.free[:len(m.free)-1]; s.ID != uint64(len(m.ss)+1) || s.slot != slot || s.KVBytes != kv {
					fail("admitted ID %d slot %d KV %d, model %d %d %d", s.ID, s.slot, s.KVBytes, len(m.ss)+1, slot, kv)
				}
				m.ss = append(m.ss, &refSession{s: s})
			}
		case 's':
			r := recent()
			if r == nil {
				break
			}
			err := eng.Start(r.s)
			var want error
			switch {
			case m.closed:
				want = ErrEngineClosed
			case r.done || r.released:
				want = ErrSessionDone
			case r.entry != nil:
				want = errStarted
			}
			if !errors.Is(err, want) && !(want == errStarted && err != nil) {
				fail("Start = %v, model says %v", err, want)
			}
			if err == nil {
				cost := int64(r.s.PromptTokens*r.s.Cfg.TokenBytes) + r.s.stepCost()
				if r.entry, err = m.q.Push(r.s.slot, cost, slices.Index(m.ss, r)); err != nil {
					fail("the model's queue refused the prefill: %v", err)
				}
			}
		case 'c':
			w := &workers[digit()%modelWorkers]
			if w.st != nil {
				break
			}
			st, ok := eng.Next(m.stop)
			w.r, w.entry = m.claim()
			switch {
			case ok != (w.r != nil):
				fail("claim returned a step: %v, model claims one: %v", ok, w.r != nil)
			case ok && (st.S != w.r.s || st.Chunk != w.r.next || st.Kind != stepKind(w.r.next)):
				fail("claimed session %d chunk %d %v, model session %d chunk %d", st.S.ID, st.Chunk, st.Kind, w.r.s.ID, w.r.next)
			}
			w.st = st
		case 'd', 'f', 'q':
			w := &workers[digit()%modelWorkers]
			switch {
			case w.st == nil:
			case c == 'q':
				eng.Requeue(w.st)
				if !w.r.released { // a released session's step is dropped
					m.q.Requeue(w.entry)
				}
				m.q.Release(w.entry.Flow)
			case c == 'f':
				eng.Fail(w.st)
				m.settle(w.r, w.entry, false)
			default:
				if got, want := eng.Complete(w.st), m.settle(w.r, w.entry, true); got != want {
					fail("Complete = %v, model says %v", got, want)
				}
			}
			w.st = nil
		case 'r':
			if r := recent(); r != nil {
				eng.Release(r.s)
				if !r.released {
					r.released, r.done = true, true
					m.free = append(m.free, r.s.slot)
					m.q.Cancel(r.entry)
					r.entry = nil
				}
			}
		case 'z':
			eng.Close()
			m.closed = true
			m.q.Close()
		default:
			continue
		}

		if got, want := eng.KVInUse(), m.kvInUse(); got != want {
			fail("KV in use %d, live reservations sum to %d", got, want)
		}
		if !slices.Equal(eng.free, m.free) {
			fail("free slots %v, model %v", eng.free, m.free)
		}
		var seen [MaxSessions]int
		for _, slot := range m.free {
			seen[slot]++
		}
		for _, r := range m.ss {
			if !r.released {
				seen[r.s.slot]++
			}
		}
		if i := slices.IndexFunc(seen[:], func(n int) bool { return n != 1 }); i >= 0 {
			fail("slot %d is free or live %d times", i, seen[i])
		}
		if got, want := eng.Pending(), m.q.Pending(); got != want {
			fail("Pending() = %d, model %d", got, want)
		}
		if got, want := eng.StepLog(), m.log[max(0, len(m.log)-StepLogCap):]; !slices.Equal(got, want) {
			fail("step log %v, model %v", got, want)
		}
	}
}
