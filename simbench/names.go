package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// def is one printed metric: its name, unit and which direction is better.
type def struct{ name, unit, better string }

// defs are the metrics the command prints, by BENCHMARK.json tier;
// checkNames holds the two lists equal.
var defs = map[string][]def{
	"end_to_end": {
		{"wall_s", "s", "lower"},
		{"sim_mips", "Minstr/s", "higher"},
		{"job_p50_ms", "ms", "lower"},
		{"job_tail_ms", "ms", "lower"},
		{"setup_s", "s", "lower"},
		{"peak_rss_mb", "MB", "lower"},
	},
	"per_layer": {
		{"sim.dispatch.share", "fraction", "lower"},
		{"sim.dispatch.ns_per_event", "ns", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.handoffs", "count", "lower"},
		{"sim.inline_steps", "count", "higher"},
		{"sim.fastpath_rate", "fraction", "higher"},
		{"runtime.sched.share", "fraction", "lower"},
		{"sim.server.share", "fraction", "lower"},
		{"sim.server.ns_per_xfer", "ns", "lower"},
		{"sim.server_pruned", "count", "lower"},
		{"cpu.share", "fraction", "lower"},
		{"cpu.ns_per_kinstr", "ns", "lower"},
		{"cpu.instructions", "count", "lower"},
		{"cache.share", "fraction", "lower"},
		{"cache.ns_per_access", "ns", "lower"},
		{"cache.l1_accesses", "count", "lower"},
		{"cache.l1_hit_ratio", "fraction", "higher"},
		{"cache.snoop_lookups", "count", "lower"},
		{"coher.share", "fraction", "lower"},
		{"coher.ns_per_miss", "ns", "lower"},
		{"coher.misses", "count", "lower"},
		{"coher.c2c", "count", "lower"},
		{"noc.share", "fraction", "lower"},
		{"noc.xbar_msgs", "count", "lower"},
		{"uncore.share", "fraction", "lower"},
		{"uncore.l2_requests", "count", "lower"},
		{"uncore.l2_hit_ratio", "fraction", "higher"},
		{"dram.share", "fraction", "lower"},
		{"dram.ns_per_access", "ns", "lower"},
		{"dram.accesses", "count", "lower"},
		{"dram.row_hit_ratio", "fraction", "higher"},
		{"dma.share", "fraction", "lower"},
		{"dma.ns_per_beat", "ns", "lower"},
		{"dma.commands", "count", "lower"},
		{"dma.beats", "count", "lower"},
		{"stream.share", "fraction", "lower"},
		{"syncprim.share", "fraction", "lower"},
		{"workload.share", "fraction", "lower"},
		{"observers.share", "fraction", "lower"},
		{"txntrace.trees", "count", "lower"},
		{"txntrace.export_ms", "ms", "lower"},
		{"bench.share", "fraction", "lower"},
		{"bench.queue_wait_ms", "ms", "lower"},
		{"workload.new_ms", "ms", "lower"},
		{"workload.setup_ms", "ms", "lower"},
		{"core.new_ms", "ms", "lower"},
		{"core.run_ms", "ms", "lower"},
		{"workload.verify_ms", "ms", "lower"},
		{"runtime.gc.share", "fraction", "lower"},
		{"runtime.other.share", "fraction", "lower"},
		{"runtime.alloc_mb", "MB", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"other.share", "fraction", "lower"},
		{"trace_overhead", "ratio", "lower"},
	},
}

// checkNames fails unless BENCHMARK.json lists exactly the metrics the
// command prints, each with the same unit and direction.
func checkNames(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("metric names: %w", err)
	}
	var bj map[string]json.RawMessage
	if err := json.Unmarshal(b, &bj); err != nil {
		return fmt.Errorf("metric names: %s: %w", path, err)
	}
	for tier, want := range defs {
		var got []struct{ Name, Unit, Better string }
		if err := json.Unmarshal(bj[tier], &got); err != nil {
			return fmt.Errorf("metric names: %s %s: %w", path, tier, err)
		}
		listed := map[string]def{}
		for _, g := range got {
			if _, dup := listed[g.Name]; dup {
				return fmt.Errorf("metric names: %s %s lists %s twice", path, tier, g.Name)
			}
			listed[g.Name] = def{g.Name, g.Unit, g.Better}
		}
		for _, d := range want {
			if g, ok := listed[d.name]; !ok || g != d {
				return fmt.Errorf("metric names: %s %s lists %+v for printed metric %+v", path, tier, g, d)
			}
			delete(listed, d.name)
		}
		for name := range listed {
			return fmt.Errorf("metric names: %s %s lists %s, which is not printed", path, tier, name)
		}
	}
	return nil
}
