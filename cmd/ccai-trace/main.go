// Command ccai-trace runs a confidential task on a chosen xPU with
// packet recorders on both bus segments and prints the traffic
// breakdown: what crossed the untrusted host bus (ciphertext, tags,
// control) versus the trusted internal bus (plaintext to the device),
// plus filter statistics and the payload-entropy probe.
//
//	ccai-trace -xpu A100 -mode protected -bytes 4096
//	ccai-trace -metrics                   # print the metrics registry
//	ccai-trace -timeline trace.json       # export a Chrome trace timeline
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ccai"
	"ccai/internal/sim"
	"ccai/internal/trace"
	"ccai/internal/xpu"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccai-trace:", err)
		os.Exit(1)
	}
}

// run is main with its environment abstracted for the CLI tests.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ccai-trace", flag.ContinueOnError)
	xpuName := fs.String("xpu", "A100", "device: A100, T4, RTX4090Ti, S60, N150d")
	mode := fs.String("mode", "protected", "protected or vanilla")
	size := fs.Int("bytes", 4096, "task input size")
	dump := fs.String("dump", "", "write a capture file of host-bus traffic to this path")
	read := fs.String("read", "", "inspect an existing capture file and exit")
	metrics := fs.Bool("metrics", false, "print the observability metrics registry after the run")
	timeline := fs.String("timeline", "", "export the span timeline as Chrome trace-event JSON to this path")
	audit := fs.Bool("audit", false, "run the telemetry-plane smoke: live scrape, tenant isolation, audit-chain verify")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *audit {
		return auditSmoke(stdout)
	}
	if *read != "" {
		return inspectCapture(stdout, *read)
	}

	profile, err := xpu.ProfileByName(*xpuName)
	if err != nil {
		return err
	}
	m := ccai.Protected
	if *mode == "vanilla" {
		m = ccai.Vanilla
	}
	opts := []ccai.Option{ccai.WithXPU(profile), ccai.WithMode(m)}
	if *metrics || *timeline != "" {
		opts = append(opts, ccai.WithObserve())
	}
	plat, err := ccai.New(opts...)
	if err != nil {
		return err
	}
	defer plat.Close()
	if err := plat.EstablishTrust(); err != nil {
		return err
	}

	hostRec := trace.NewRecorder()
	hostRec.Retain(100000)
	plat.Host.AddTap(hostRec)
	var capFile *os.File
	var capWriter *trace.Writer
	if *dump != "" {
		capFile, err = os.Create(*dump)
		if err != nil {
			return err
		}
		capWriter, err = trace.NewWriter(capFile)
		if err != nil {
			return err
		}
		var stamp sim.Time
		plat.Host.AddTap(&trace.CaptureTap{W: capWriter, Clock: func() sim.Time { stamp++; return stamp }})
	}
	var innerRec *trace.Recorder
	if plat.Internal != nil {
		innerRec = trace.NewRecorder()
		innerRec.Retain(100000)
		plat.Internal.AddTap(innerRec)
	}

	input := make([]byte, *size)
	for i := range input {
		input[i] = byte("confidential"[i%12])
	}
	out, err := plat.RunTask(ccai.Task{Input: input, Kernel: ccai.KernelXOR, Param: 0x5a})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "task complete on %s (%s mode): %d bytes in, %d bytes out\n\n",
		profile.Name, m, len(input), len(out))
	if capWriter != nil {
		if err := capWriter.Flush(); err != nil {
			return err
		}
		if err := capFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "capture: %d packets written to %s\n\n", capWriter.Count(), *dump)
	}

	fmt.Fprint(stdout, hostRec.Summary("host bus (untrusted)"))
	if innerRec != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, innerRec.Summary("internal bus (trusted, sealed chassis)"))
	}
	if plat.SC != nil {
		st := plat.SC.Stats()
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "PCIe-SC statistics:")
		fmt.Fprintf(stdout, "  filter: %d dropped, %d A2-protected, %d A3-verified, %d A4-passed\n",
			st.Filter.Dropped, st.Filter.Protected, st.Filter.Verified, st.Filter.Passed)
		fmt.Fprintf(stdout, "  handlers: %d chunks decrypted, %d encrypted, %d A3 slots and writes verified, %d auth failures\n",
			st.DecryptedChunks, st.EncryptedChunks, st.VerifiedChunks, st.AuthFailures)
	}
	if *metrics {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "observability metrics:")
		fmt.Fprint(stdout, plat.MetricsSnapshot().RenderText())
	}
	if *timeline != "" {
		f, err := os.Create(*timeline)
		if err != nil {
			return err
		}
		if err := plat.WriteTimeline(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		spans := len(plat.Observability().T().Spans())
		fmt.Fprintf(stdout, "\ntimeline: %d spans written to %s (load in chrome://tracing or Perfetto)\n", spans, *timeline)
	}
	return nil
}

// inspectCapture replays a capture file through a Recorder and prints
// its summary plus the first few packets.
func inspectCapture(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.ReadCapture(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "capture %s: %d packets\n", path, len(recs))
	rec := trace.NewRecorder()
	rec.Retain(len(recs))
	for _, r := range recs {
		rec.Tap(r.Packet)
	}
	fmt.Fprint(stdout, rec.Summary("capture"))
	limit := 10
	if len(recs) < limit {
		limit = len(recs)
	}
	fmt.Fprintf(stdout, "first %d packets:\n", limit)
	for _, r := range recs[:limit] {
		fmt.Fprintf(stdout, "  [%6d] %v\n", r.At, r.Packet)
	}
	return nil
}
