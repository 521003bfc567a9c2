package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// defaultSeed is the seed used when --seed is not given.
const defaultSeed = 1

// workloads are the benchmark's inputs by name. README.md records why each
// was chosen and which layers it stresses.
var workloads = map[string]workload{
	"cell-bloat": {draws: 6, setup: cellBloat.setup, run: cellBloat.run,
		reference: cellBloat.reference},
	"metro-city": {draws: 6, setup: func(seed int64, scale float64) { metroSetup(metroOptions(seed, scale)) },
		run: metroRun},
	"chaos-obs": {draws: 9, setup: chaosObs.setup, run: chaosObs.run,
		reference: chaosObs.reference},
	"udp-loopback": {draws: 4, setup: udpSetup, run: udpRun},
}

// fingerprintsJSON holds, per workload and seed, the fingerprint of one
// round at the committed code: a later change that moves any simulated
// result or deterministic count at these seeds fails every trial.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

func loadFingerprints() (map[string]map[int64]string, error) {
	var fps map[string]map[int64]string
	if err := json.Unmarshal(fingerprintsJSON, &fps); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return fps, nil
}
