package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"

	"ccai"
	"ccai/cmd/ccai-synccount/lockcount"
	"ccai/internal/llm"
	"ccai/internal/xpu"
)

// Op counts: enough that a once-per-window or once-per-rekey section
// shows as its fraction, few enough that the count takes seconds.
const (
	warmOps     = 20
	taskOps     = 200
	sessionOps  = 32
	decodeSteps = 63 // a 512-token session's steps past an 8-token one's, at 8 tokens a step
)

// sites is a count per call site, by function and kind of section.
type sites map[lockcount.Site]float64

func snapshot() sites {
	out := sites{}
	for s, n := range lockcount.Snapshot() {
		out[s] = float64(n)
	}
	return out
}

// per is s over n ops; minus is s − o, site by site.
func (s sites) per(n float64) sites {
	out := sites{}
	for k, v := range s {
		out[k] = v / n
	}
	return out
}

func (s sites) minus(o sites) sites {
	out := sites{}
	for k, v := range s {
		out[k] = v
	}
	for k, v := range o {
		out[k] -= v
	}
	return out
}

func (s sites) total() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// counted runs op n times with counting on, after warm runs with it off,
// and returns the sections per op.
func counted(warm, n int, op func() error) (sites, error) {
	for i := 0; i < warm; i++ {
		if err := op(); err != nil {
			return nil, err
		}
	}
	lockcount.Reset()
	lockcount.Enable(true)
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			lockcount.Enable(false)
			return nil, err
		}
	}
	lockcount.Enable(false)
	return snapshot().per(float64(n)), nil
}

// measure takes the three counts, prints them and checks the budgets.
func measure(w io.Writer) (bool, error) {
	runtime.GOMAXPROCS(1)
	small, big, err := taskCounts()
	if err != nil {
		return false, err
	}
	step, err := decodeStepCount()
	if err != nil {
		return false, err
	}
	if small.total() == 0 {
		return false, fmt.Errorf("no section was counted: -measure only counts inside the rewritten copy; run without it")
	}
	ok := true
	ok = report(w, "task 256 B", small, 0) && ok
	ok = report(w, "task 64 KiB", big, budgetTask64KiB) && ok
	ok = report(w, "decode step", step, budgetDecodeStep) && ok
	return ok, nil
}

// report prints one op's sites, most sections first, and reports
// whether the op is within budget (0: no budget).
func report(w io.Writer, name string, s sites, budget float64) bool {
	keys := make([]lockcount.Site, 0, len(s))
	for k, v := range s {
		if v >= 0.005 || v <= -0.005 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if s[keys[i]] != s[keys[j]] {
			return s[keys[i]] > s[keys[j]]
		}
		return keys[i].Func < keys[j].Func
	})
	total := s.total()
	verdict, ok := "", true
	if budget > 0 {
		ok = total <= budget
		verdict = fmt.Sprintf(" (budget %.0f: ok)", budget)
		if !ok {
			verdict = fmt.Sprintf(" (budget %.0f: OVER)", budget)
		}
	}
	fmt.Fprintf(w, "\n== %s: %.2f mutex sections per op%s\n", name, total, verdict)
	for _, k := range keys {
		kind := "Lock "
		if k.RLock {
			kind = "RLock"
		}
		fmt.Fprintf(w, "  %8.2f  %s  %s\n", s[k], kind, k.Func)
	}
	return ok
}

// taskCounts counts a 256 B and a 64 KiB protected task on one
// protected A100 slice, the benchmark's task-bulk chassis.
func taskCounts() (small, big sites, err error) {
	p, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected))
	if err != nil {
		return nil, nil, err
	}
	defer p.Close()
	if err := p.EstablishTrust(); err != nil {
		return nil, nil, err
	}
	task := func(size int) func() error {
		t := ccai.Task{Input: make([]byte, size), Kernel: ccai.KernelAdd, Param: 1}
		return func() error {
			out, err := p.RunTask(t)
			if err == nil && (len(out) != size || out[0] != 1) {
				err = fmt.Errorf("task of %d bytes returned a wrong result", size)
			}
			return err
		}
	}
	if small, err = counted(warmOps, taskOps, task(256)); err != nil {
		return nil, nil, err
	}
	big, err = counted(warmOps, taskOps/4, task(64<<10))
	return small, big, err
}

// decodeStepCount counts the steady decode step of the benchmark's
// llm-decode session (16 prompt tokens, 8 tokens a step) on a one-tenant
// A100 chassis: a 512-token session less an 8-token one, over the 63
// steps between them.
func decodeStepCount() (sites, error) {
	mp, err := ccai.NewMultiPlatform([]xpu.Profile{xpu.A100})
	if err != nil {
		return nil, err
	}
	defer mp.Close()
	if err := mp.EstablishTrustAll(); err != nil {
		return nil, err
	}
	t := mp.Tenants[0]
	ctx := context.Background()
	session := func(tokens int) func() error {
		cfg := llm.Config{MaxNewTokens: tokens, MaxPromptTokens: 16, ChunkTokens: 8, Seed: 7}
		if err := cfg.Normalize(); err != nil {
			panic(err)
		}
		prompt := make([]byte, cfg.MaxPromptTokens*cfg.TokenBytes)
		return func() error {
			sess, err := t.OpenSession(ctx, cfg)
			if err != nil {
				return err
			}
			defer sess.Close()
			ch, err := sess.Decode(ctx)
			if err != nil {
				return err
			}
			if err := sess.Prefill(ctx, prompt); err != nil {
				return err
			}
			n := 0
			for c := range ch {
				if c.Err != nil {
					return c.Err
				}
				n++
			}
			if n != cfg.Chunks() {
				return fmt.Errorf("session streamed %d chunks, want %d", n, cfg.Chunks())
			}
			return nil
		}
	}
	long, err := counted(warmOps/4, sessionOps, session(8*(decodeSteps+1)))
	if err != nil {
		return nil, err
	}
	short, err := counted(warmOps/4, sessionOps, session(8))
	if err != nil {
		return nil, err
	}
	return long.minus(short).per(decodeSteps), nil
}
