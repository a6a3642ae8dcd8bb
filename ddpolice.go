// Package ddpolice is a reproduction of "Defending P2Ps from Overlay
// Flooding-based DDoS" (Liu, Liu, Wang, Xiao — ICPP 2007): an
// unstructured (Gnutella-style) P2P simulation substrate, the overlay
// flooding DDoS attack it studies, and the paper's DD-POLICE defense —
// buddy groups, Neighbor_Traffic reports (Table 1) and the
// General/Single indicators of Definitions 2.1-2.3.
//
// The package is a facade over the internal subsystems:
//
//   - internal/sim       — the end-to-end overlay simulator
//   - internal/police    — the DD-POLICE protocol
//   - internal/attack    — DDoS agent models
//   - internal/gnet      — live TCP Gnutella-lite nodes
//   - internal/capacity  — the single-peer saturation model (Figs 5-6)
//
// Quick start:
//
//	cfg := ddpolice.DefaultConfig()
//	cfg.NumAgents = 10
//	cfg.PoliceEnabled = true
//	res, err := ddpolice.Run(cfg)
//
// The Experiment functions regenerate every table and figure of the
// paper's evaluation; Figures declares each once and cmd/ddexp drives it.
package ddpolice

import (
	"ddpolice/internal/attack"
	"ddpolice/internal/overlay"
	"ddpolice/internal/police"
	"ddpolice/internal/sim"
)

// Config parameterizes one simulation run (see internal/sim).
type Config = sim.Config

// Result is a finished run's aggregate output.
type Result = sim.Result

// PoliceConfig holds the DD-POLICE protocol parameters.
type PoliceConfig = police.Config

// AgentConfig describes the DDoS agents' behaviour.
type AgentConfig = attack.AgentConfig

// ChurnConfig models peer session dynamics.
type ChurnConfig = overlay.ChurnConfig

// DefaultConfig returns the paper's simulation environment, scaled per
// DESIGN.md ("Calibration").
func DefaultConfig() Config { return sim.DefaultConfig() }

// DefaultPoliceConfig returns the paper's DD-POLICE operating point
// (q0 = 100, warning threshold 500/min, CT = 5, 2-minute exchanges).
func DefaultPoliceConfig() PoliceConfig { return police.DefaultConfig() }

// Run executes one simulation.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// RunParallel executes several configurations concurrently (bounded by
// GOMAXPROCS) and returns results in input order.
func RunParallel(cfgs []Config) ([]*Result, error) { return sim.RunParallel(cfgs) }
