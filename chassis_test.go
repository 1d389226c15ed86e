package ccai

// Tests pinning that a protected Platform is the §9 chassis with one
// unit: the same wire as a one-tenant MultiPlatform, the same host-side
// presence, and the same device-side screening on every slice.

import (
	"bytes"
	"strings"
	"testing"

	"ccai/internal/core"
	"ccai/internal/mem"
	"ccai/internal/pcie"
	"ccai/internal/tvm"
	"ccai/internal/xpu"
)

// wireRow is what a segment shows of one packet, payload bytes aside.
type wireRow struct {
	kind    pcie.Kind
	role    pcie.Role
	req     pcie.ID
	addr    uint64
	length  uint32
	payload int
}

// recordWire taps bus and returns the rows it sees from then on.
func recordWire(bus *pcie.Bus) *[]wireRow {
	rows := new([]wireRow)
	bus.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		*rows = append(*rows, wireRow{p.Kind, p.Role, p.Requester, p.Address, p.Length, len(p.Payload)})
		return p
	}))
	return rows
}

// TestPlatformIsOneUnitChassis runs three 4 KiB tasks on a protected
// Platform and on tenant 0 of a one-tenant MultiPlatform and requires
// both segments of the two to carry the same packets: same kind, role,
// requester, address and lengths, in the same order.
func TestPlatformIsOneUnitChassis(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	mp, err := NewMultiPlatform([]xpu.Profile{xpu.A100})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mp.Close)
	tn := mp.Tenants[0]
	if err := tn.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	pHost, pInner := recordWire(p.Host), recordWire(p.Internal)
	tHost, tInner := recordWire(mp.Host), recordWire(tn.internal)
	task := Task{Input: bytes.Repeat([]byte{7}, 4096), Kernel: KernelXOR, Param: 0x5a}
	for i := 0; i < 3; i++ {
		if _, err := p.RunTask(task); err != nil {
			t.Fatalf("platform task %d: %v", i, err)
		}
		if _, err := tn.RunTask(task); err != nil {
			t.Fatalf("tenant task %d: %v", i, err)
		}
	}
	for _, seg := range []struct {
		name     string
		plat, mt []wireRow
	}{{"host", *pHost, *tHost}, {"internal", *pInner, *tInner}} {
		if len(seg.plat) == 0 || len(seg.plat) != len(seg.mt) {
			t.Fatalf("%s segment: platform %d packets, tenant %d", seg.name, len(seg.plat), len(seg.mt))
		}
		for i := range seg.plat {
			if seg.plat[i] != seg.mt[i] {
				t.Fatalf("%s segment packet %d: platform %+v, tenant %+v", seg.name, i, seg.plat[i], seg.mt[i])
			}
		}
	}
}

// TestD2HBurstKeepsHostWire pins what the device's D2H write bursts
// must not move. Three 64 KiB XOR tasks put the wire ledger's host rows
// on the host segment — a protected Platform's first task the
// task-64KiB-first rows, the next two the task-64KiB rows; a Vanilla
// Platform's each the vanilla-task-64KiB rows — as when the device
// posted its result in 256-byte writes: on a protected Platform the
// bursts end at the SC and the SC still writes 256-byte ciphertext
// chunks, and a Vanilla device writes straight onto the host bus. Behind
// the SC the device posts each 64 KiB result as the ledger's internal
// d2h-data MWrs, every one a MaxReadReq burst, not 256 MaxPayload
// writes. In both modes the device fetches a task's three command slots
// with one 192-byte read; on the Vanilla host segment that is one
// MRd/CplD pair, not three.
func TestD2HBurstKeepsHostWire(t *testing.T) {
	const tasks = 3
	task := Task{Input: bytes.Repeat([]byte{7}, 64<<10), Kernel: KernelXOR, Param: 0x5a}
	for _, c := range []struct {
		name          string
		p             func(*testing.T, xpu.Profile) *Platform
		first, steady string
	}{
		{"protected", protectedPlatform, "task-64KiB-first", "task-64KiB"},
		{"vanilla", vanillaPlatform, "vanilla-task-64KiB", "vanilla-task-64KiB"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := c.p(t, xpu.A100)
			host := recordWire(p.Host)
			var inner *[]wireRow
			if p.Internal != nil {
				inner = recordWire(p.Internal)
			}
			for i := 0; i < tasks; i++ {
				n := len(*host)
				if _, err := p.RunTask(task); err != nil {
					t.Fatalf("task %d: %v", i, err)
				}
				shape := c.steady
				if i == 0 {
					shape = c.first
				}
				if got := (shapeWire{host: (*host)[n:]}).lines(shape, 1); profile(got) != profile(goldenShape(t, shape, "host")) {
					t.Fatalf("task %d: host segment not the wire ledger's %s rows:\n%s", i, shape, strings.Join(got, "\n"))
				}
			}
			if inner == nil {
				return
			}
			bursts := 0
			for _, r := range *inner {
				if r.kind == pcie.MWr && r.role == pcie.RoleD2HData {
					if r.payload != pcie.MaxReadReq {
						t.Fatalf("D2H write of %d bytes, want %d", r.payload, pcie.MaxReadReq)
					}
					bursts++
				}
			}
			if want := tasks * goldenCount(t, c.steady, "internal", "d2h-data", "MWr"); uint64(bursts) != want {
				t.Fatalf("internal segment: %d D2H writes over %d tasks, the wire ledger's %d", bursts, tasks, want)
			}
		})
	}
}

// TestPlatformHostSideIsMux: a protected Platform's SC BAR and xPU
// window belong to a Mux at SCID, not to the SC itself — a config
// request addressed to SCID is answered by the Mux and never reaches
// the SC's filter.
func TestPlatformHostSideIsMux(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	for _, addr := range []uint64{scBARBase, xpuBARBase} {
		if owner, ok := p.Host.Owner(addr); !ok || owner != SCID {
			t.Fatalf("host owner of %#x = %v, %v; want %v", addr, owner, ok, SCID)
		}
	}
	dropped := p.SC.Stats().Filter.Dropped
	cfg := &pcie.Packet{Header: pcie.Header{Kind: pcie.CfgRd, Requester: TVMID, Completer: SCID, Length: 4}}
	if cpl := p.Host.Route(cfg); cpl == nil || cpl.Status != pcie.CplUR {
		t.Fatalf("config read of SCID = %v, want UR", cpl)
	}
	if got := p.SC.Stats().Filter.Dropped; got != dropped {
		t.Fatalf("config read of SCID reached the SC's filter (dropped %d → %d)", dropped, got)
	}
}

// TestSlicePrivateWindowReachesFilter: on every slice — a Platform and
// both tenants of a two-tenant chassis — a device DMA aimed at its TVM's
// private memory routes into its SC on the internal segment and dies in
// the filter: a non-success completion for the read, memory untouched
// by the write, and one filter drop per packet.
func TestSlicePrivateWindowReachesFilter(t *testing.T) {
	type row struct {
		name     string
		internal *pcie.Bus
		sc       *core.Controller
		xpu      pcie.ID
		space    *mem.Space
		private  string // the TVM-private region of space
	}
	p := protectedPlatform(t, xpu.A100)
	rows := []row{{"platform", p.Internal, p.SC, XPUID, p.Guest.Space, tvm.PrivateRegion}}
	mp := twoTenants(t)
	for i, tn := range mp.Tenants {
		rows = append(rows, row{"tenant" + tenantLabel(i), tn.internal, tn.SC, tn.XPUID, mp.space, "private" + tenantLabel(i)})
	}
	secret := bytes.Repeat([]byte{0xa5}, 64)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			buf, err := r.space.Alloc(r.private, "secret", int64(len(secret)))
			if err != nil {
				t.Fatal(err)
			}
			defer r.space.Free(buf)
			copy(buf.Bytes(), secret)
			addr := buf.Base()
			before := r.sc.Stats().Filter.Dropped
			if cpl := r.internal.Route(pcie.NewMemRead(r.xpu, addr, 64, 0)); cpl == nil || cpl.Status == pcie.CplSuccess {
				t.Fatalf("device read of private memory = %v, want a failed completion", cpl)
			}
			r.internal.Route(pcie.NewMemWrite(r.xpu, addr, make([]byte, 64)))
			if got, err := r.space.Read(addr, 64); err != nil || !bytes.Equal(got, secret) {
				t.Fatalf("device write reached private memory (%v)", err)
			}
			if got := r.sc.Stats().Filter.Dropped; got != before+2 {
				t.Fatalf("filter drops %d → %d, want +2 (one per packet)", before, got)
			}
		})
	}
}
