package ccai_test

import (
	"fmt"
	"log"

	"ccai"
	"ccai/internal/xpu"
)

// ExampleNew shows the minimal confidential-task flow: build a
// protected platform, establish trust, run a task through the
// unmodified driver, tear down.
func ExampleNew() {
	plat, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected))
	if err != nil {
		log.Fatal(err)
	}
	defer plat.Close()
	if err := plat.EstablishTrust(); err != nil {
		log.Fatal(err)
	}
	out, err := plat.RunTask(ccai.Task{Input: []byte("abc"), Kernel: ccai.KernelAdd, Param: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", out)
	// Output: bcd
}

// ExampleNewMultiPlatform shows the §9 multi-tenant extension: two
// tenants, two devices, one PCIe-SC chassis.
func ExampleNewMultiPlatform() {
	mp, err := ccai.NewMultiPlatform([]xpu.Profile{xpu.A100, xpu.N150d})
	if err != nil {
		log.Fatal(err)
	}
	defer mp.Close()
	for _, tenant := range mp.Tenants {
		if err := tenant.EstablishTrust(); err != nil {
			log.Fatal(err)
		}
		out, err := tenant.RunTask(ccai.Task{Input: []byte("hi"), Kernel: ccai.KernelXOR, Param: 0})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tenant %d on %s: %s\n", tenant.Index, tenant.Device.Profile().Name, out)
	}
	// Output:
	// tenant 0 on A100: hi
	// tenant 1 on N150d: hi
}

// ExamplePlatform_RunTask demonstrates that vanilla and protected modes
// compute identical results — the transparency property.
func ExamplePlatform_RunTask() {
	input := []byte("same bytes in")
	for _, mode := range []ccai.Mode{ccai.Vanilla, ccai.Protected} {
		plat, err := ccai.New(ccai.WithMode(mode))
		if err != nil {
			log.Fatal(err)
		}
		if err := plat.EstablishTrust(); err != nil {
			log.Fatal(err)
		}
		out, err := plat.RunTask(ccai.Task{Input: input, Kernel: ccai.KernelAdd, Param: 0})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s\n", mode, out)
		plat.Close()
	}
	// Output:
	// vanilla: same bytes in
	// ccAI: same bytes in
}
