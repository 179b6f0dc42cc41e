package core

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// FuzzConfigHash fuzzes every machine field of a Config, seeded from
// DefaultConfig for CC, STR and INC. Validate must never panic; on a
// config it accepts, Hash must not panic, must ignore observers
// (Hash(c) == Hash(c.Normalize())), and must survive the JSON round
// trip of c.Normalize() that a stored record's payload makes.
func FuzzConfigHash(f *testing.F) {
	for _, m := range []Model{CC, STR, INC} {
		for _, cores := range []int{1, 8, 16} {
			c := DefaultConfig(m, cores)
			f.Add(int(c.Model), c.Cores, c.CoreMHz, c.DRAMBandwidthMBps, c.PrefetchDepth,
				c.NoWriteAllocate, c.SnoopFilter, c.InstrPerIMiss, uint64(c.IMissPenalty), uint64(c.MaxSimTime),
				c.L2SizeKB, c.L2Banks, c.DRAMChannels, c.CoresPerCluster, c.DMAOutstanding, c.StoreBuffer,
				c.CycleLedger, c.FlightRecorder, "fir", "small")
		}
	}
	f.Fuzz(func(t *testing.T, model, cores int, coreMHz, bw uint64, prefetch int,
		noWA, snoop bool, instrPerIMiss, iMissPenalty, maxSim,
		l2KB uint64, l2Banks, dramCh, perCluster, dmaOut, storeBuf int,
		ledger bool, flightRec int, workload, scale string) {
		c := Config{
			Model: Model(model), Cores: cores, CoreMHz: coreMHz, DRAMBandwidthMBps: bw,
			PrefetchDepth: prefetch, NoWriteAllocate: noWA, SnoopFilter: snoop,
			InstrPerIMiss: instrPerIMiss, IMissPenalty: sim.Time(iMissPenalty), MaxSimTime: sim.Time(maxSim),
			L2SizeKB: l2KB, L2Banks: l2Banks, DRAMChannels: dramCh, CoresPerCluster: perCluster,
			DMAOutstanding: dmaOut, StoreBuffer: storeBuf, CycleLedger: ledger, FlightRecorder: flightRec,
		}
		if c.Validate() != nil {
			return
		}
		const version = "v1"
		h := c.Hash(workload, scale, version)
		norm := c.Normalize()
		if hn := norm.Hash(workload, scale, version); hn != h {
			t.Fatalf("Hash(c) = %s, Hash(c.Normalize()) = %s", h, hn)
		}
		b, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("valid config does not encode: %v", err)
		}
		var back Config
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("valid config does not decode: %v\n%s", err, b)
		}
		if back != norm {
			t.Fatalf("JSON round trip changed the config:\n%+v\n%+v", norm, back)
		}
		if hb := back.Hash(workload, scale, version); hb != h {
			t.Fatalf("hash changed across the JSON round trip: %s -> %s", h, hb)
		}
	})
}
