package soak

import (
	"encoding/binary"

	"ccai/internal/fault"
	"ccai/internal/pcie"
	"ccai/internal/sim"
)

// A Wave is one storm episode: at AtMs (virtual milliseconds from run
// start) the carrier plane's taps are rewired with a fresh fault
// injector running Faults, plus bounded attack instruments. When the
// next wave begins (or the run ends) the wave's closing actions fire:
// captured traffic is replayed and rogue requesters knock on the
// filters, both against a quiescent tap stack so the freshness and
// access-control oracles read clean.
type Wave struct {
	// AtMs is the wave's start on the virtual clock.
	AtMs uint32
	// Faults is the wave's injector plan (fresh injector per wave, so
	// skip/count indices restart each wave).
	Faults fault.Plan
	// Tamper/Drop bound the wave's bit-flip and packet-drop attacks.
	Tamper, Drop uint8
	// Redirect bounds cross-tenant address-rewrite attacks.
	Redirect uint8
	// Replay bounds the packets captured for end-of-wave replay.
	Replay uint8
	// Rogue is the number of end-of-wave rogue requester attempts.
	Rogue uint8
	// Rekey, when nonzero, forces a carrier stream counter near
	// exhaustion at wave start so MaybeRekey must roll keys under load.
	Rekey uint8
	// TamperAim, DropAim, RedirectAim and ReplayAim name the packet
	// role each attack tap hits: tamper and drop any role, redirect and
	// replay one of the TVM's doorbells.
	TamperAim, DropAim, RedirectAim, ReplayAim pcie.Role
}

// doorbellRoles are the roles a wave's redirect and replay draw from:
// the TVM writes an adversary would misroute or play back. A guarded
// device write rides the submission ring, so the ring doorbell is the
// one such write on the host segment.
var doorbellRoles = []pcie.Role{pcie.RoleRingDoorbell}

// StormPlan is the whole run's adversarial schedule. It is generated
// deterministically from the config seed and round-trips through a
// bounded wire format so CI can prove two runs executed the identical
// storm.
type StormPlan struct {
	Seed  uint64
	Waves []Wave
}

// MaxWaves bounds a plan's wave list.
const MaxWaves = 64

// stormMagic/stormVersion frame the serialized form.
var stormMagic = [4]byte{'S', 'S', 'T', 'M'}

const stormVersion = 2

// Marshal serializes the plan: magic, version, seed, wave count, then
// per wave the start instant, the six intensity bytes, the four aimed
// roles, and the nested length-prefixed fault plan.
func (p StormPlan) Marshal() []byte {
	buf := make([]byte, 0, 16+len(p.Waves)*32)
	buf = append(buf, stormMagic[:]...)
	buf = append(buf, stormVersion)
	buf = binary.LittleEndian.AppendUint64(buf, p.Seed)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Waves)))
	for _, w := range p.Waves {
		buf = binary.LittleEndian.AppendUint32(buf, w.AtMs)
		buf = append(buf, w.Tamper, w.Drop, w.Redirect, w.Replay, w.Rogue, w.Rekey)
		buf = append(buf, byte(w.TamperAim), byte(w.DropAim), byte(w.RedirectAim), byte(w.ReplayAim))
		fp := w.Faults.Marshal()
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(fp)))
		buf = append(buf, fp...)
	}
	return buf
}

// GeneratePlan derives the run's storm schedule from the config: one
// wave per WavePeriod across the horizon, each wave's fault events
// dealt round-robin over every fault class (so a full run exercises
// all of them, many times over) with seed-derived roles, skips and
// counts, plus seed-derived attack intensities and aims. Rekey pressure
// alternates waves so key rolls land under many different load phases.
func GeneratePlan(cfg Config) StormPlan {
	r := sim.NewRand(cfg.Seed ^ 0x5707_3141_5926_5358)
	classes, roles := fault.Classes(), pcie.Roles()
	p := StormPlan{Seed: cfg.Seed}
	period := cfg.WavePeriod
	if period <= 0 {
		period = cfg.Horizon
	}
	for at := sim.Time(0); at < cfg.Horizon && len(p.Waves) < MaxWaves; at += period {
		w := Wave{
			AtMs:     uint32(at / sim.Millisecond),
			Tamper:   uint8(1 + r.Intn(3)),
			Drop:     uint8(1 + r.Intn(2)),
			Redirect: uint8(r.Intn(2)),
			Replay:   uint8(4 + r.Intn(5)),
			Rogue:    uint8(1 + r.Intn(2)),
			Rekey:    uint8((len(p.Waves) + 1) % 2),

			TamperAim:   roles[r.Intn(len(roles))],
			DropAim:     roles[r.Intn(len(roles))],
			RedirectAim: doorbellRoles[r.Intn(len(doorbellRoles))],
			ReplayAim:   doorbellRoles[r.Intn(len(doorbellRoles))],
		}
		n := cfg.FaultsPerWave
		if n <= 0 {
			n = len(classes)
		}
		fp := fault.Plan{Seed: r.Uint64()}
		for j := 0; j < n; j++ {
			e := fault.Event{Class: classes[j%len(classes)]}
			switch aims := e.Class.Aims(); len(aims) {
			case 0: // a hook class
			case 1:
				e.Role = aims[0]
			default:
				e.Role = aims[r.Intn(len(aims))]
			}
			e.Skip = uint16(r.Intn(6))
			e.Count = uint16(1 + r.Intn(2))
			fp.Events = append(fp.Events, e)
		}
		w.Faults = fp
		p.Waves = append(p.Waves, w)
	}
	return p
}
