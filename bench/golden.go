package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed golden.json
var goldenJSON []byte

// goldens pins each workload's output at one seed and full scale: the
// SHA-256 of runner.SweepResult.WriteTable and, where the workload has
// both browsing points, the paper_ratio_err readout.
type goldens struct {
	Seed      uint64                 `json:"seed"`
	Workloads map[string]goldenEntry `json:"workloads"`
}

type goldenEntry struct {
	SHA256        string `json:"sha256"`
	PaperRatioErr string `json:"paper_ratio_err,omitempty"`
}

func loadGoldens(data []byte) (goldens, error) {
	var g goldens
	if err := json.Unmarshal(data, &g); err != nil {
		return goldens{}, fmt.Errorf("parsing golden.json: %w", err)
	}
	return g, nil
}
