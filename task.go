package ccai

import (
	"context"
	"fmt"

	"ccai/internal/obsv"
	"ccai/internal/tvm"
	"ccai/internal/xpu"
)

// Kernel selects a functional reference kernel for task execution.
// Real model math is handled by the timing model (internal/bench);
// these kernels prove that data actually flows end-to-end through the
// protected path byte-for-byte.
type Kernel uint32

const (
	// KernelAdd computes out[i] = in[i] + param.
	KernelAdd Kernel = xpu.KernelVecAddConst
	// KernelChecksum computes an FNV-1a digest of the input.
	KernelChecksum Kernel = xpu.KernelChecksum
	// KernelXOR computes out[i] = in[i] ^ param.
	KernelXOR Kernel = xpu.KernelXORMask
)

// RunTask's span site, attribute keys and fixed attribute values,
// resolved once.
var (
	siteRunTask = obsv.NewSite(obsv.TrackTask, "run_task")

	keyTask     = obsv.NewKey("task")
	keyKernel   = obsv.NewKey("kernel")
	keyInBytes  = obsv.NewKey("in_bytes")
	keyOutBytes = obsv.NewKey("out_bytes")
	keyMode     = obsv.NewKey("mode")
	keyStatus   = obsv.NewKey("status")

	symOK       = obsv.Intern("ok")
	symError    = obsv.Intern("error")
	symCanceled = obsv.Intern("canceled")
	kernelSyms  = [...]obsv.Sym{
		KernelAdd:      obsv.Intern(KernelAdd.String()),
		KernelChecksum: obsv.Intern(KernelChecksum.String()),
		KernelXOR:      obsv.Intern(KernelXOR.String()),
	}
)

// taskObs holds RunTask's per-platform handles — the task.runs counter
// of each outcome and the mode as an attribute value — resolved once in
// New. All zero with observability off, so a run builds no metric name.
type taskObs struct {
	runsOK, runsErr *obsv.Counter
	mode            obsv.Sym
}

func newTaskObs(reg *obsv.Registry, mode Mode) taskObs {
	runs := func(status string) *obsv.Counter {
		return reg.Counter(obsv.Name("task.runs", "mode", mode.String(), "status", status))
	}
	return taskObs{runsOK: runs("ok"), runsErr: runs("error"), mode: obsv.Intern(mode.String())}
}

func (k Kernel) String() string {
	switch k {
	case KernelAdd:
		return "add"
	case KernelChecksum:
		return "checksum"
	case KernelXOR:
		return "xor"
	}
	return fmt.Sprintf("kernel%d", uint32(k))
}

// field renders the kernel as a span attribute: its name, or — for a
// selector outside the reference set — the bare number, so no caller
// value ever mints a symbol.
func (k Kernel) field() obsv.Field {
	if k >= KernelAdd && int(k) < len(kernelSyms) {
		return keyKernel.Str(kernelSyms[k])
	}
	return keyKernel.U64(uint64(k))
}

// Task is one confidential xPU job: input data, a kernel, and its
// parameter. Output size equals input size (KernelChecksum pads to 8).
type Task struct {
	Input  []byte
	Kernel Kernel
	Param  uint8
}

// RunTask executes a task on the platform's device using the native
// driver flow: stage input, submit copy/kernel/copy commands, collect
// the result. Under Protected mode the input crosses the host bus only
// as ciphertext and the result returns encrypted; under Vanilla it
// travels in the clear (which the adversary tests exploit).
//
// With observability on (WithObserve) each run opens a task scope:
// every span recorded until the task returns carries the same task ID,
// and the run itself is one "run_task" span on the task track tagged
// with the kernel, input size and outcome — metadata only, never the
// data.
func (p *Platform) RunTask(t Task) ([]byte, error) {
	return p.RunTaskCtx(context.Background(), t)
}

// RunTaskCtx is RunTask with end-to-end cancellation, honored at the
// protected pipeline's safe points (see pipeline.run): before staging
// and before the doorbell an early cancellation costs nothing on the
// device; once the submission is rung the run drains to completion and
// only then is the cancellation reported and the result withheld, so
// stream state is never left mid-protocol. Cancellation errors satisfy
// errors.Is on context.Canceled / ErrDeadlineExceeded.
func (p *Platform) RunTaskCtx(ctx context.Context, t Task) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tr := p.Obs.T()
	id := tr.StartTask()
	defer tr.EndTask()
	sp := tr.Start(siteRunTask, keyTask.U64(id), t.Kernel.field(),
		keyInBytes.I64(int64(len(t.Input))), keyMode.Str(p.taskMet.mode))
	out, err := p.runTask(ctx, t)
	status, runs := symOK, p.taskMet.runsOK
	if err != nil {
		status, runs = symError, p.taskMet.runsErr
	}
	sp.Set(keyStatus.Str(status), keyOutBytes.I64(int64(len(out))))
	sp.End()
	runs.Inc()
	return out, err
}

func (p *Platform) runTask(ctx context.Context, t Task) ([]byte, error) {
	if p.Mode == Protected {
		return p.task(ctx, t)
	}
	return p.runVanilla(ctx, t)
}

// outLen is the task's result size: the input size, except that
// KernelChecksum pads to its 8-byte digest.
func (t Task) outLen() int64 {
	n := int64(len(t.Input))
	if t.Kernel == KernelChecksum && n < 8 {
		n = 8
	}
	return n
}

// commands builds the native driver's copy/kernel/copy sequence for the
// task against the given host staging addresses. The device-memory
// layout is fixed: input at 0, output after.
func (t Task) commands(inAddr, outAddr uint64, outLen int64) [3]xpu.Command {
	const devIn, devOut = 0x0, 0x40000
	return [3]xpu.Command{
		{Op: xpu.OpCopyH2D, Src: inAddr, Dst: devIn, Len: uint64(len(t.Input))},
		{Op: xpu.OpKernel, Param: uint32(t.Kernel)<<16 | uint32(t.Param), Src: devIn, Dst: devOut, Len: uint64(outLen)},
		{Op: xpu.OpCopyD2H, Src: devOut, Dst: outAddr, Len: uint64(outLen)},
	}
}

// runVanilla is the unprotected baseline: plaintext staged in ordinary
// DMA-able memory, the device driven directly on the host bus. It shares
// nothing with the protected pipeline — no sealing, no recovery ladder.
func (p *Platform) runVanilla(ctx context.Context, t Task) ([]byte, error) {
	if len(t.Input) == 0 {
		return nil, ErrEmptyInput
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	outLen := t.outLen()
	in, err := p.Guest.Space.Alloc(tvm.SharedRegion, "task-input", int64(len(t.Input)))
	if err != nil {
		return nil, err
	}
	defer p.Guest.Space.Free(in)
	copy(in.Bytes(), t.Input)
	out, err := p.Guest.Space.Alloc(tvm.SharedRegion, "task-output", outLen)
	if err != nil {
		return nil, err
	}
	defer p.Guest.Space.Free(out)
	cmds := t.commands(in.Base(), out.Base(), outLen)
	before := p.Driver.Tail()
	if err := p.Driver.Submit(cmds[:]...); err != nil {
		return nil, err
	}
	head, err := p.Driver.Head()
	if err != nil {
		return nil, err
	}
	if head != before+uint64(len(cmds)) {
		st, _ := p.Driver.Status()
		return nil, fmt.Errorf("ccai: device consumed %d/%d commands (status %#x)", head-before, len(cmds), st)
	}
	return append([]byte(nil), out.Bytes()...), nil
}
