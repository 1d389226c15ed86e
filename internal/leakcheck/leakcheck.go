// Package leakcheck fails a test binary whose goroutines outlive its
// tests. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and exits with their code. A run that passed
// fails when, a second after m.Run, more goroutines are left than
// before it; every leftover goroutine's stack is printed. A test seam by
// design: the root package's and internal/adaptor's TestMain call it.
func Main(m *testing.M) {
	base := len(goroutines())
	code := m.Run()
	if code == 0 && !settle(base) {
		code = 1
	}
	os.Exit(code)
}

// goroutines lists the stacks of the live goroutines but the one that
// os/signal keeps for the life of the process once anything (a fuzz
// run's coordinator) asks for a signal.
func goroutines() []string {
	buf := make([]byte, 1<<20)
	var out []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if !strings.Contains(g, "os/signal.loop") {
			out = append(out, g)
		}
	}
	return out
}

// settle waits up to a second for the goroutines to come back to base;
// when they do not, it prints every stack and reports false.
func settle(base int) bool {
	var left []string
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if left = goroutines(); len(left) <= base {
			return true
		}
	}
	fmt.Fprintf(os.Stderr, "%d goroutines outlived the tests (%d before them):\n%s\n",
		len(left), base, strings.Join(left, "\n\n"))
	return false
}
