// Command ccai-synccount counts the mutex sections each benchmark-shaped
// op takes, by the function that takes them:
//
//	go run ./cmd/ccai-synccount        # or: make sync-count
//
// It copies the module's Go files outside benchmark/ into a temporary
// directory, rewrites every sync.Mutex and sync.RWMutex type there to a
// stand-in that counts its Lock and RLock calls (package lockcount), and
// runs itself in the copy with -measure. The checkout is only read. The
// measuring run warms up, then takes a 256 B protected task, a 64 KiB
// protected task and the steady decode step of the benchmark's
// llm-decode session — (a 512-token session − an 8-token session) / 63,
// which leaves out what opening, prefilling and closing a session cost —
// at one proc, the benchmark's shape. It prints the sections per op by
// call site and exits non-zero when an op is over its budget.
//
// The count is taken in a rewritten copy, off every timed path, because
// a counter in the program would cost about as much as the uncontended
// Lock/Unlock pair it counts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Budgets, in mutex sections per op. They may only go down: a change
// that needs more sections on these paths says why, and the budget does
// not move to make room for it.
const (
	budgetDecodeStep = 42
	budgetTask64KiB  = 272
)

func main() {
	measureFlag := flag.Bool("measure", false, "count in this process (only meaningful inside the rewritten copy)")
	flag.Parse()
	if *measureFlag {
		ok, err := measure(os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccai-synccount: %v\n", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	code, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccai-synccount: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run makes the rewritten copy, runs the measuring pass in it and
// returns that pass's exit code.
func run() (int, error) {
	root, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp("", "ccai-synccount-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	n, err := copyRewritten(root, dir)
	if err != nil {
		return 0, err
	}
	fmt.Printf("ccai-synccount: %d files rewritten to counting mutexes\n", n)
	cmd := exec.Command("go", "run", "./cmd/ccai-synccount", "-measure")
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), nil
		}
		return 0, err
	}
	return 0, nil
}

// moduleRoot walks up from the working directory to the go.mod of the
// ccai module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && isCCAIModule(b) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the ccai module")
		}
		dir = parent
	}
}

func isCCAIModule(gomod []byte) bool {
	for _, line := range strings.Split(string(gomod), "\n") {
		if strings.TrimSpace(line) == "module ccai" {
			return true
		}
	}
	return false
}
