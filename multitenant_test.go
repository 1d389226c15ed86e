package ccai

// Tests for the §9 extension: one PCIe-SC chassis slicing between
// multiple (TVM, xPU) pairs, with per-tenant keys, policies, regions
// and full cross-tenant isolation.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
	"ccai/internal/xpu"
)

func twoTenants(t *testing.T) *MultiPlatform {
	t.Helper()
	mp, err := NewMultiPlatform([]xpu.Profile{xpu.A100, xpu.N150d})
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range mp.Tenants {
		if err := tenant.EstablishTrust(); err != nil {
			t.Fatalf("tenant %d: %v", tenant.Index, err)
		}
	}
	t.Cleanup(mp.Close)
	chassisHygiene(t, mp)
	return mp
}

func TestMultiTenantBothRunTasks(t *testing.T) {
	mp := twoTenants(t)
	inputs := [][]byte{
		[]byte("tenant zero's proprietary embedding batch"),
		[]byte("tenant one's confidential medical prompt"),
	}
	for i, tenant := range mp.Tenants {
		out, err := tenant.RunTask(Task{Input: inputs[i], Kernel: KernelXOR, Param: 0x21})
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
		for j := range inputs[i] {
			if out[j] != inputs[i][j]^0x21 {
				t.Fatalf("tenant %d: byte %d wrong", i, j)
			}
		}
	}
	// Each tenant's control BAR answers, through the one host bus, from
	// that tenant's own unit.
	for i, tenant := range mp.Tenants {
		bar := uint64(scBARBase) + uint64(i)*tenantStride
		want := uint64(core.SCStatusReady)
		if tenant.SC.Stats().ConfigRejects != 0 {
			want |= core.SCStatusConfigErr
		}
		cpl := mp.Host.Route(pcie.NewMemRead(tenant.TVMID, bar+core.RegSCStatus, 8, 0))
		if cpl == nil || cpl.Status != pcie.CplSuccess || cpl.Completer != tenant.SC.DeviceID() ||
			binary.LittleEndian.Uint64(cpl.Payload) != want {
			t.Fatalf("tenant %d: control-BAR read answered %v, want its own unit %v", i, cpl, tenant.SC.DeviceID())
		}
	}
}

func TestMultiTenantInterleavedTasks(t *testing.T) {
	mp := twoTenants(t)
	for round := 0; round < 3; round++ {
		for i, tenant := range mp.Tenants {
			in := bytes.Repeat([]byte{byte(round*2 + i + 1)}, 300)
			out, err := tenant.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 1})
			if err != nil {
				t.Fatalf("round %d tenant %d: %v", round, i, err)
			}
			if out[0] != in[0]+1 {
				t.Fatalf("round %d tenant %d: wrong result", round, i)
			}
		}
	}
}

func TestMultiTenantNoCrossPlaintext(t *testing.T) {
	mp := twoTenants(t)
	snoop := attack.NewSnooper()
	mp.Host.AddTap(snoop)
	secretA := []byte("TENANT-A-SECRET-WEIGHTS-000111222")
	secretB := []byte("TENANT-B-SECRET-INPUTS-3334445556")
	if _, err := mp.Tenants[0].RunTask(Task{Input: secretA, Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Tenants[1].RunTask(Task{Input: secretB, Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if snoop.SawPlaintext(secretA) || snoop.SawPlaintext(secretB) {
		t.Fatal("tenant plaintext on the shared host bus")
	}
}

func TestMultiTenantCannotDriveNeighborXPU(t *testing.T) {
	mp := twoTenants(t)
	a, b := mp.Tenants[0], mp.Tenants[1]
	// Tenant A's TVM pokes tenant B's xPU window directly.
	rogue := &attack.RogueRequester{ID: a.TVMID, Bus: mp.Host}
	winB := uint64(xpuBARBase) + tenantStride
	droppedBefore := b.SC.Stats().Filter.Dropped
	rogue.Write(winB+xpu.RegDoorbell, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	cpl := rogue.Read(winB+xpu.RegStatus, 8)
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("tenant A read tenant B's device state")
	}
	if b.SC.Stats().Filter.Dropped <= droppedBefore {
		t.Fatal("unit B's filter did not drop the foreign TVM")
	}
}

func TestMultiTenantCannotTouchNeighborControlBAR(t *testing.T) {
	mp := twoTenants(t)
	a, b := mp.Tenants[0], mp.Tenants[1]
	barB := uint64(scBARBase) + tenantStride
	rejBefore := b.SC.Stats().ConfigRejects
	tearBefore := b.SC.Stats().Teardowns
	mp.Host.Route(pcie.NewMemWrite(a.TVMID, barB+core.RegTeardown, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
	if b.SC.Stats().Teardowns != tearBefore {
		t.Fatal("tenant A tore down tenant B's session")
	}
	if b.SC.Stats().ConfigRejects <= rejBefore {
		t.Fatal("control-BAR rejection not recorded")
	}
}

func TestMultiTenantDeviceCannotReachNeighborBounce(t *testing.T) {
	mp := twoTenants(t)
	a, b := mp.Tenants[0], mp.Tenants[1]
	// Stage data for tenant B, then have tenant A's *device* try to
	// read it (a compromised accelerator attacking a neighbor).
	region, err := b.Adaptor.StageH2D("b-weights", []byte("tenant B staged data, 32 bytes!!"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Adaptor.ReleaseRegion(region)
	// A's device DMA goes through A's internal bus -> A's SC unit,
	// which has no region registered for B's address and whose IOMMU
	// mapping doesn't cover B's window.
	cpl := a.SC.HandleFromDevice(pcie.NewMemRead(a.XPUID, region.Buf.Base(), 32, 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("tenant A's device read tenant B's bounce buffer")
	}
}

func TestMultiTenantKeysAreIndependent(t *testing.T) {
	mp := twoTenants(t)
	a, b := mp.Tenants[0], mp.Tenants[1]
	// Fresh replicas of each SC's h2d stream: what A's key seals, A's
	// opens and B's does not.
	replica := func(tn *Tenant) *secmem.Stream {
		s, err := tn.scKeys.Stream(core.StreamH2D)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sealed, err := replica(a).Seal([]byte("tenant A's chunk"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica(a).Open(sealed, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := replica(b).Open(sealed, nil); err == nil {
		t.Fatal("tenants share stream keys")
	}
}

func TestMultiTenantTeardownIsPerTenant(t *testing.T) {
	mp := twoTenants(t)
	a, b := mp.Tenants[0], mp.Tenants[1]
	if _, err := a.RunTask(Task{Input: []byte("residue"), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if a.Device.MemResidue() {
		t.Fatal("tenant A device not wiped")
	}
	// Tenant B keeps running.
	out, err := b.RunTask(Task{Input: []byte("still alive"), Kernel: KernelAdd, Param: 0})
	if err != nil || string(out) != "still alive" {
		t.Fatalf("tenant B broken after A's teardown: %v", err)
	}
	// Tenant A can't run anymore.
	if _, err := a.RunTask(Task{Input: []byte("x"), Kernel: KernelAdd, Param: 0}); err == nil {
		t.Fatal("closed tenant still runs tasks")
	}
}

// TestTenantAttestationGatesKeyProvisioning is §6 on the §9 chassis:
// every tenant's xPU is software-attested against the golden firmware
// before any key is installed. A flashed device in slot 1 never receives
// keys; the genuine one in slot 0 trusts and serves regardless.
func TestTenantAttestationGatesKeyProvisioning(t *testing.T) {
	flashed := xpu.A100
	flashed.FirmwareVersion = "flashed-rogue-firmware-v666"
	mp, err := NewMultiPlatform([]xpu.Profile{xpu.A100, flashed}, WithGoldenFirmware(xpu.A100.FirmwareVersion))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mp.Close)

	err = mp.EstablishTrustAll()
	if !errors.Is(err, ErrAttestFailed) || !strings.Contains(err.Error(), "tenant 1") {
		t.Fatalf("EstablishTrustAll = %v, want ErrAttestFailed naming tenant 1", err)
	}
	good, bad := mp.Tenants[0], mp.Tenants[1]
	if err := bad.EstablishTrust(); !errors.Is(err, ErrAttestFailed) {
		t.Fatalf("flashed tenant EstablishTrust = %v, want ErrAttestFailed", err)
	}
	if n := bad.scKeys.Count() + bad.tvmKeys.Count() + bad.SC.Params().Active(); n != 0 {
		t.Fatalf("keys provisioned to an unattested device: %d streams live", n)
	}
	if _, err := bad.RunTask(Task{Input: []byte("x"), Kernel: KernelAdd}); !errors.Is(err, ErrNotTrusted) {
		t.Fatalf("task on unattested tenant = %v, want ErrNotTrusted", err)
	}
	out, err := good.RunTask(Task{Input: []byte("abc"), Kernel: KernelAdd, Param: 1})
	if err != nil || string(out) != "bcd" {
		t.Fatalf("genuine tenant did not serve: %q, %v", out, err)
	}
}

func TestMuxRejectsDuplicateSlices(t *testing.T) {
	mux := core.NewMux(SCID)
	mk := func(fn uint8) *core.MuxUnit {
		c := core.NewController(pcie.MakeID(1, 0, fn), pcie.Region{Base: 0x1000, Size: 0x1000}, nil)
		c.Attach(pcie.NewBus("internal"), pcie.Region{}, pcie.NewBus("host"))
		return &core.MuxUnit{Ctrl: c, XPU: pcie.MakeID(2, 0, 0), TVM: pcie.MakeID(0, 1, 0)}
	}
	if err := mux.AddUnit(mk(0)); err != nil {
		t.Fatal(err)
	}
	if err := mux.AddUnit(mk(1)); err == nil {
		t.Fatal("duplicate xPU slice accepted")
	}
	if err := mux.AddUnit(&core.MuxUnit{}); err == nil {
		t.Fatal("unit without controller accepted")
	}
	bare := core.NewController(pcie.MakeID(1, 0, 2), pcie.Region{Base: 0x1000, Size: 0x1000}, nil)
	if err := mux.AddUnit(&core.MuxUnit{Ctrl: bare, XPU: pcie.MakeID(3, 0, 0), TVM: pcie.MakeID(0, 2, 0)}); err == nil {
		t.Fatal("unit with an unattached controller accepted")
	}
}

func TestMultiPlatformValidatesTenantCount(t *testing.T) {
	if _, err := NewMultiPlatform(nil); err == nil {
		t.Fatal("zero tenants accepted")
	}
	profiles := make([]xpu.Profile, 9)
	for i := range profiles {
		profiles[i] = xpu.A100
	}
	if _, err := NewMultiPlatform(profiles); err == nil {
		t.Fatal("nine tenants accepted")
	}
}

func TestMultiTenantFiveDevices(t *testing.T) {
	mp, err := NewMultiPlatform(xpu.Fleet())
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	for _, tenant := range mp.Tenants {
		if err := tenant.EstablishTrust(); err != nil {
			t.Fatalf("tenant %d (%s): %v", tenant.Index, tenant.Device.Profile().Name, err)
		}
		out, err := tenant.RunTask(Task{Input: []byte("fleet slice"), Kernel: KernelAdd, Param: 2})
		if err != nil {
			t.Fatalf("tenant %d (%s): %v", tenant.Index, tenant.Device.Profile().Name, err)
		}
		if out[0] != 'f'+2 {
			t.Fatalf("tenant %d: wrong result", tenant.Index)
		}
	}
}

// TestMultiTenantCrossReplayRejected captures tenant A's encrypted
// traffic and replays it into tenant B's windows: B's unit holds
// different keys and regions, so nothing decrypts and nothing installs.
func TestMultiTenantCrossReplayRejected(t *testing.T) {
	mp := twoTenants(t)
	a, b := mp.Tenants[0], mp.Tenants[1]

	rec := &attack.Recorder{Match: func(pk *pcie.Packet) bool {
		return pk.Kind == pcie.MWr && pk.Requester == a.TVMID
	}}
	mp.Host.AddTap(rec)
	if _, err := a.RunTask(Task{Input: []byte("tenant A job"), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Captured) == 0 {
		t.Fatal("nothing captured")
	}
	// Replay A's packets shifted into B's windows.
	decBefore := b.SC.Stats().DecryptedChunks
	rulesL1, rulesL2 := b.SC.Filter().RuleCount()
	for _, pkt := range rec.Captured {
		q := pkt.Clone()
		q.Address += tenantStride // A's window -> B's window
		mp.Host.Route(q)
	}
	if b.SC.Stats().DecryptedChunks != decBefore {
		t.Fatal("tenant B decrypted replayed foreign chunks")
	}
	if l1, l2 := b.SC.Filter().RuleCount(); l1 != rulesL1 || l2 != rulesL2 {
		t.Fatal("replayed config installed rules on tenant B")
	}
	// B keeps working.
	if _, err := b.RunTask(Task{Input: []byte("tenant B fine"), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatalf("tenant B disturbed by cross replay: %v", err)
	}
}

// TestMultiTenantSnoopIsolation verifies each tenant's secrets stay off
// the wire even while the other tenant's SC unit is active on the same
// physical host bus.
func TestMultiTenantSnoopIsolation(t *testing.T) {
	mp := twoTenants(t)
	snoop := attack.NewSnooper()
	mp.Host.AddTap(snoop)
	secrets := [][]byte{
		[]byte("SECRET-A-0123456789abcdef-block"),
		[]byte("SECRET-B-fedcba9876543210-block"),
	}
	// Interleave the two tenants' work.
	for round := 0; round < 2; round++ {
		for i, tenant := range mp.Tenants {
			if _, err := tenant.RunTask(Task{Input: secrets[i], Kernel: KernelAdd, Param: 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range secrets {
		if snoop.SawPlaintext(s) {
			t.Fatalf("tenant %d secret visible on the shared bus", i)
		}
	}
}
