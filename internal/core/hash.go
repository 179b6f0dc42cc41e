package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Normalize returns the configuration with every run-scoped observer
// stripped: the tracer, the probe recorder, and the flight recorder
// describe how one particular run is watched, not the machine being
// simulated, so two runs differing only in observers are the same
// experiment. The run layer memoizes on the normalized config, and the
// persistent result store hashes it — both must agree on what "the same
// machine" means, which is why this lives here and not in either.
func (c Config) Normalize() Config {
	c.Trace = nil
	c.Probe = nil
	c.FlightRecorder = 0
	c.TxnTrace = nil
	return c
}

// Hash returns the canonical content address of one simulation: the
// normalized configuration, the workload name, the dataset scale the
// workload was built at, and a version string (by default the SHA-256
// of the running executable plus the store schema version; see
// resultstore.Options.Version). The version participates in the key so
// a result store written by an older build can never poison a newer
// one — a changed simulator silently misses and re-simulates instead of
// serving stale physics. The scale participates because it
// selects the workload's dataset sizes: the same machine running "fir"
// at small and paper scale are different experiments with different
// reports, and a store shared across -scale values must never serve
// one as the other.
//
// The hash is SHA-256 over the JSON encoding of a fixed four-field
// struct. encoding/json emits struct fields in declaration order and
// formats integers and strings canonically, so the encoding — and
// therefore the hash — is deterministic across processes and platforms
// for any comparable Config value.
func (c Config) Hash(workload, scale, version string) string {
	payload := struct {
		Version  string `json:"version"`
		Scale    string `json:"scale"`
		Workload string `json:"workload"`
		Config   Config `json:"config"`
	}{version, scale, workload, c.Normalize()}
	b, err := json.Marshal(payload)
	if err != nil {
		// Config is a plain value struct (observers are json:"-" and nil
		// after Normalize); Marshal cannot fail on it. Panic loudly if a
		// future field breaks that.
		panic(fmt.Sprintf("core: config hash encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
