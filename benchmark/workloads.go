package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ccai"
	"ccai/internal/adaptor"
	"ccai/internal/core"
	"ccai/internal/llm"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// workload is one closed-loop traffic mix: one submitting goroutine,
// the next op issued only after the previous one completed and was
// checked. Sizes are constants of the workload; only payload bytes,
// kernel parameters, prompts, session seeds and burst order come from
// the seed. README.md and BENCHMARK.json say at length why each was
// chosen.
type workload struct {
	name string
	// countOps and warmOps size the set-up's fixed work: ops per count
	// pass (run twice) and warm-up ops on the timed chassis.
	countOps, warmOps int
	// maxRate bounds ops/s, to size the latency slices up front.
	maxRate int
	build   func(seed uint64, o buildOpts) (*instance, error)
}

type buildOpts struct {
	observe    bool // WithObserve(): metrics registry + span tracer wired in
	flipOracle bool // corrupt one expected byte (the oracle's self-test)
}

// instance is one assembled chassis with its generated inputs.
type instance struct {
	op    func(i int, rec *spanRec) (time.Duration, error)
	close func()

	// What the count pass reads, all through public accessors.
	adaptors []*adaptor.Adaptor
	scs      []*core.Controller
	host     *pcie.Bus
	hub      *obsv.Hub

	inputDigest uint64
	tokensPerOp int   // generated tokens per op (llm workloads)
	kvBytes     int64 // KV image staged per op (llm workloads)

	// streamed runs iters ops with a second goroutine calling Prefill while
	// the submitting one receives, filling ttft and gap (llm workloads).
	streamed func(iters int, ref *refKernel) sample

	// Per-op timings the layer metrics use; appended up to capacity.
	ttft, gap, queueWait, firstDone []time.Duration
}

const auxCap = 1 << 16

func (in *instance) resetAux() {
	in.ttft, in.gap = in.ttft[:0], in.gap[:0]
	in.queueWait, in.firstDone = in.queueWait[:0], in.firstDone[:0]
}

func appendCapped(s []time.Duration, d time.Duration) []time.Duration {
	if len(s) < cap(s) {
		s = append(s, d)
	}
	return s
}

var workloads = []workload{
	{
		// Per-byte work (seal/open of 256 chunks, ~390 host TLPs, classify,
		// DMA both ways) does almost all of it, per-op control almost none.
		name:     "task-bulk",
		countOps: 120, warmOps: 120, maxRate: 4000,
		build: buildTaskBulk,
	},
	{
		// 64 decode steps of 32 B: fixed per-record cost dominates, and a
		// bulk-crypto gain must not move it.
		name:     "llm-decode",
		countOps: 40, warmOps: 40, maxRate: 1000,
		build: func(seed uint64, o buildOpts) (*instance, error) {
			return buildLLM(seed, o, llm.Config{MaxNewTokens: 512, MaxPromptTokens: 16, ChunkTokens: 8})
		},
	},
	{
		// 65 280 B of KV sealed once and never read back, no decode step: the
		// bulk H2D path one-way plus admission, KV budget, slot alloc/free.
		name:     "llm-prefill",
		countOps: 250, warmOps: 250, maxRate: 8000,
		build: func(seed uint64, o buildOpts) (*instance, error) {
			return buildLLM(seed, o, llm.Config{MaxNewTokens: 8, MaxPromptTokens: 128, ChunkTokens: 8, KVBytesPerToken: 480})
		},
	},
	{
		// The only workload with the fair queue, slot hand-off and the
		// cross-tenant shared state on the blocking path.
		name:     "serve-burst",
		countOps: 70, warmOps: 70, maxRate: 2000,
		build: buildServeBurst,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// digest64 folds generated inputs into one FNV-1a value, printed so
// that two seeds can be seen to reach the inputs.
type digest64 uint64

func newDigest() digest64 { return 0xcbf29ce484222325 }

func (d *digest64) write(b []byte) {
	h := uint64(*d)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	*d = digest64(h)
}

// taskCase is one generated task with the output the host oracle
// expects: KernelAdd and KernelXOR recomputed byte by byte.
type taskCase struct {
	task ccai.Task
	want []byte
}

// genTask draws the payload and the kernel parameter from rng; the
// kernel itself alternates with idx so that every seed runs the same mix.
func genTask(rng *rand.Rand, idx, size int, d *digest64) taskCase {
	in := make([]byte, size)
	rng.Read(in)
	param := uint8(1 + rng.Intn(255)) // never the identity
	kernel := ccai.KernelAdd
	if idx%2 == 1 {
		kernel = ccai.KernelXOR
	}
	want := make([]byte, size)
	for i, b := range in {
		if kernel == ccai.KernelAdd {
			want[i] = b + param
		} else {
			want[i] = b ^ param
		}
	}
	d.write(in)
	d.write([]byte{param, byte(kernel)})
	return taskCase{task: ccai.Task{Input: in, Kernel: kernel, Param: param}, want: want}
}

var errWrongOutput = errors.New("benchmark: output differs from the host oracle")

func checkTask(c *taskCase, out []byte, err error) error {
	if err != nil {
		return err
	}
	if !bytes.Equal(out, c.want) {
		return errWrongOutput
	}
	return nil
}

// chassisOpts are the options shared by every chassis the benchmark
// builds; everything else stays at the ccai defaults (adaptor.Optimized).
func chassisOpts(o buildOpts) []ccai.Option {
	if o.observe {
		return []ccai.Option{ccai.WithObserve()}
	}
	return nil
}

const taskBytes = 64 << 10

// newProtectedPlatform cold-assembles a one-tenant Protected chassis
// and establishes trust on it.
func newProtectedPlatform(o buildOpts) (*ccai.Platform, error) {
	p, err := ccai.New(append(chassisOpts(o), ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected))...)
	if err != nil {
		return nil, err
	}
	if err := p.EstablishTrust(); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func buildTaskBulk(seed uint64, o buildOpts) (*instance, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	d := newDigest()
	cases := make([]taskCase, 8)
	for i := range cases {
		cases[i] = genTask(rng, i, taskBytes, &d)
	}
	if o.flipOracle {
		cases[0].want[0] ^= 1
	}
	p, err := newProtectedPlatform(o)
	if err != nil {
		return nil, err
	}
	in := &instance{
		close:       p.Close,
		adaptors:    []*adaptor.Adaptor{p.Adaptor},
		scs:         []*core.Controller{p.SC},
		host:        p.Host,
		hub:         p.Obs,
		inputDigest: uint64(d),
	}
	in.op = func(i int, rec *spanRec) (time.Duration, error) {
		c := &cases[i%len(cases)]
		sp := rec.begin("RunTask", noParent, i)
		t0 := time.Now()
		out, err := p.RunTask(c.task)
		lat := time.Since(t0)
		rec.end(sp)
		return lat, checkTask(c, out, err)
	}
	return in, nil
}

// llmCase is one generated session with what the oracle needs to check
// every streamed chunk without allocating: the KV image the device must
// have kept resident and the session digest keying each step.
type llmCase struct {
	cfg    llm.Config
	prompt []byte
	digest uint64
	kv     []byte
}

func buildLLM(seed uint64, o buildOpts, cfg llm.Config) (*instance, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	d := newDigest()
	cases := make([]llmCase, 32)
	for i := range cases {
		c := &cases[i]
		c.cfg = cfg
		c.cfg.Seed = rng.Uint64()
		c.prompt = make([]byte, cfg.MaxPromptTokens*cfg.TokenBytes)
		rng.Read(c.prompt)
		c.digest = llm.Digest(c.cfg.Seed, c.prompt)
		c.kv = llm.KVInit(c.digest, cfg.KVBytes(cfg.MaxPromptTokens))
		d.write(c.prompt)
		d.write([]byte(fmt.Sprint(c.cfg.Seed)))
	}
	if o.flipOracle {
		cases[0].kv[llm.StepOffset(cases[0].digest, 0, int64(len(cases[0].kv)), int64(cfg.ChunkSpan(0)*cfg.TokenBytes))] ^= 1
	}
	mp, err := ccai.NewMultiPlatform([]xpu.Profile{xpu.A100}, chassisOpts(o)...)
	if err != nil {
		return nil, err
	}
	if err := mp.EstablishTrustAll(); err != nil {
		mp.Close()
		return nil, err
	}
	t := mp.Tenants[0]
	chunks := cfg.Chunks()
	in := &instance{
		close:       mp.Close,
		adaptors:    []*adaptor.Adaptor{t.Adaptor},
		scs:         []*core.Controller{t.SC},
		host:        mp.Host,
		hub:         mp.Obs,
		inputDigest: uint64(d),
		tokensPerOp: cfg.MaxNewTokens,
		kvBytes:     cfg.KVBytes(cfg.MaxPromptTokens),
		ttft:        make([]time.Duration, 0, auxCap),
		gap:         make([]time.Duration, 0, auxCap),
	}
	got := make([]ccai.DecodeChunk, chunks)
	ctx := context.Background()
	// session runs one op. Prefill returns only when the stream has ended
	// (its chunks wait in the session's buffered channel), so the window
	// calls it and then drains, all from the submitting goroutine. With
	// prefill non-nil that goroutine runs Prefill instead while this one
	// receives, and the arrival of every chunk is stamped: ttft and the
	// gaps between chunks as a streaming consumer sees them.
	session := func(i int, rec *spanRec, prefill *prefiller) (time.Duration, error) {
		c := &cases[i%len(cases)]
		root := rec.begin("session", noParent, i)
		t0 := time.Now()
		sp := rec.begin("OpenSession", root, i)
		sess, err := t.OpenSession(ctx, c.cfg)
		rec.end(sp)
		if err != nil {
			return 0, err
		}
		ch, err := sess.Decode(ctx)
		if err != nil {
			sess.Close()
			return 0, err
		}
		if prefill != nil {
			prefill.calls <- prefillCall{sess, c.prompt}
		} else {
			sp = rec.begin("Prefill", root, i)
			err = sess.Prefill(ctx, c.prompt)
			rec.end(sp)
			if err != nil {
				sess.Close()
				return 0, err
			}
		}
		n := 0
		var streamErr error
		var tFirst, tLast time.Time
		for {
			sp = rec.begin("chunk_recv", root, i)
			dc, ok := <-ch
			rec.end(sp)
			if !ok {
				break
			}
			if prefill != nil {
				if tLast = time.Now(); n == 0 {
					tFirst = tLast
				}
			}
			switch {
			case dc.Err != nil:
				streamErr = dc.Err
			case n < len(got):
				got[n] = dc
				n++
			default:
				streamErr = fmt.Errorf("benchmark: more than %d chunks streamed", len(got))
			}
		}
		if prefill != nil {
			if err := <-prefill.results; err != nil && streamErr == nil {
				streamErr = err
			}
		}
		sp = rec.begin("Close", root, i)
		sess.Close()
		rec.end(sp)
		lat := time.Since(t0)
		rec.end(root)
		if prefill != nil && n > 0 {
			in.ttft = appendCapped(in.ttft, tFirst.Sub(t0))
			if n > 1 {
				in.gap = appendCapped(in.gap, tLast.Sub(tFirst)/time.Duration(n-1))
			}
		}
		if streamErr != nil {
			return lat, streamErr
		}
		return lat, checkChunks(c, got[:n])
	}
	in.op = func(i int, rec *spanRec) (time.Duration, error) { return session(i, rec, nil) }
	in.streamed = func(iters int, ref *refKernel) sample {
		// One call is in flight at a time and its result is always read.
		p := &prefiller{calls: make(chan prefillCall), results: make(chan error, 1)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for c := range p.calls {
				err := c.sess.Prefill(ctx, c.prompt)
				if err != nil {
					c.sess.Close() // ends the stream, so the receiver cannot hang
				}
				p.results <- err
			}
		}()
		s := measure(ref, iters, 0, func(i int) (time.Duration, error) { return session(i, nil, p) })
		close(p.calls)
		<-done
		return s
	}
	return in, nil
}

// prefiller is the helper goroutine of a streamed run: it calls Prefill
// for the submitting goroutine, which meanwhile receives the chunks.
type prefiller struct {
	calls   chan prefillCall
	results chan error
}

type prefillCall struct {
	sess   *ccai.InferenceSession
	prompt []byte
}

// checkChunks is llm.ExpectedChunk for every streamed chunk, written
// against llm.StepOffset/llm.StepKey so the timed window's oracle does
// not allocate: chunk k must be the KV window at StepOffset XORed with
// StepKey, in order, the last one marked Final.
func checkChunks(c *llmCase, got []ccai.DecodeChunk) error {
	if len(got) != c.cfg.Chunks() {
		return fmt.Errorf("benchmark: %d chunks streamed, want %d", len(got), c.cfg.Chunks())
	}
	for k := range got {
		span := int64(c.cfg.ChunkSpan(k) * c.cfg.TokenBytes)
		if got[k].Index != k || int64(len(got[k].Tokens)) != span || got[k].Final != (k == len(got)-1) {
			return fmt.Errorf("benchmark: chunk %d malformed (index %d, %d bytes, final %v)",
				k, got[k].Index, len(got[k].Tokens), got[k].Final)
		}
		off := llm.StepOffset(c.digest, k, int64(len(c.kv)), span)
		key := llm.StepKey(c.digest, k)
		for i, b := range got[k].Tokens {
			if b != c.kv[off+int64(i)]^key {
				return errWrongOutput
			}
		}
	}
	return nil
}

// Burst shape: every size twice, order drawn from the seed.
var burstSizes = [8]int{256, 256, 4 << 10, 4 << 10, 16 << 10, 16 << 10, 64 << 10, 64 << 10}

const burstTenants = 4

func buildServeBurst(seed uint64, o buildOpts) (*instance, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	d := newDigest()
	// 16 burst variants, each its own order and payloads.
	type burst [len(burstSizes)]taskCase
	bursts := make([]burst, 16)
	for b := range bursts {
		perm := rng.Perm(len(burstSizes))
		for j, p := range perm {
			bursts[b][j] = genTask(rng, p, burstSizes[p], &d)
		}
	}
	if o.flipOracle {
		bursts[0][0].want[0] ^= 1
	}
	profiles := make([]xpu.Profile, burstTenants)
	for i := range profiles {
		profiles[i] = xpu.A100
	}
	mp, err := ccai.NewMultiPlatform(profiles, chassisOpts(o)...)
	if err != nil {
		return nil, err
	}
	if err := mp.EstablishTrustAll(); err != nil {
		mp.Close()
		return nil, err
	}
	s, err := mp.NewScheduler(ccai.SchedulerConfig{Slots: 2})
	if err != nil {
		mp.Close()
		return nil, err
	}
	in := &instance{
		close: func() {
			_ = s.Shutdown(context.Background()) // nothing is queued between ops
			mp.Close()
		},
		host:        mp.Host,
		hub:         mp.Obs,
		inputDigest: uint64(d),
		queueWait:   make([]time.Duration, 0, auxCap),
		firstDone:   make([]time.Duration, 0, auxCap),
	}
	for _, t := range mp.Tenants {
		in.adaptors = append(in.adaptors, t.Adaptor)
		in.scs = append(in.scs, t.SC)
	}
	ctx := context.Background()
	in.op = func(i int, rec *spanRec) (time.Duration, error) {
		b := &bursts[i%len(bursts)]
		var hs [len(burstSizes)]*ccai.Handle
		root := rec.begin("burst", noParent, i)
		t0 := time.Now()
		for j := range b {
			sp := rec.begin("Submit", root, i)
			h, err := s.Submit(ctx, ccai.TenantTask{Tenant: j % burstTenants, Task: b[j].task})
			rec.end(sp)
			if err != nil {
				// Drain what was admitted so the next op starts clean.
				for _, prev := range hs[:j] {
					_, _ = prev.Result()
				}
				return 0, err
			}
			hs[j] = h
		}
		sp := rec.begin("first_done", root, i)
		select {
		case <-hs[0].Done():
		case <-hs[1].Done():
		case <-hs[2].Done():
		case <-hs[3].Done():
		case <-hs[4].Done():
		case <-hs[5].Done():
		case <-hs[6].Done():
		case <-hs[7].Done():
		}
		first := time.Since(t0)
		rec.end(sp)
		sp = rec.begin("wait_all", root, i)
		var outs [len(burstSizes)][]byte
		var errs [len(burstSizes)]error
		for j, h := range hs {
			outs[j], errs[j] = h.Result()
		}
		lat := time.Since(t0)
		rec.end(sp)
		rec.end(root)
		var firstErr error
		for j := range hs {
			if cerr := checkTask(&b[j], outs[j], errs[j]); cerr != nil && firstErr == nil {
				firstErr = cerr
			}
		}
		in.firstDone = appendCapped(in.firstDone, first)
		for _, h := range hs {
			in.queueWait = appendCapped(in.queueWait, h.QueueWait())
		}
		return lat, firstErr
	}
	return in, nil
}
