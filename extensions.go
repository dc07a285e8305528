package helmsim

import (
	"helmsim/internal/autotune"
	"helmsim/internal/energy"
	"helmsim/internal/gateway"
	"helmsim/internal/infer"
	"helmsim/internal/serve"
	"helmsim/internal/server"
	"helmsim/internal/units"
)

// This file re-exports the extension surfaces built on top of the paper's
// reproduction: the QoS autotuner (§VII future work), energy accounting
// (the abstract's DRAM-substitution argument), and online serving.

// Duration is the simulator's time unit (seconds as float64).
type Duration = units.Duration

// Bytes is the simulator's size unit.
type Bytes = units.Bytes

// Tuning objectives.
const (
	// MinTBT minimizes time between tokens.
	MinTBT = autotune.MinTBT
	// MaxThroughput maximizes tokens per second.
	MaxThroughput = autotune.MaxThroughput
	// MaxThroughputUnderTBT maximizes throughput under a TBT bound.
	MaxThroughputUnderTBT = autotune.MaxThroughputUnderTBT
)

// TuneRequest describes a QoS tuning problem.
type TuneRequest = autotune.Request

// TuneResult is a tuning outcome with the trial history.
type TuneResult = autotune.Result

// Tune searches placement policies and batch sizes for a QoS objective —
// the paper's §VII future-work direction made executable.
var Tune = autotune.Tune

// BalancePlacement builds a compute-aware placement for the configuration
// with the given GPU byte budget, generalizing HeLM's balancing idea to
// any layer structure.
var BalancePlacement = autotune.Balance

// EnergyBreakdown decomposes a run's energy cost.
type EnergyBreakdown = energy.Breakdown

// EstimateEnergy computes the energy breakdown of a completed run,
// quantifying the abstract's claim that careful placement lets
// high-capacity low-standby-power memory substitute for DRAM.
var EstimateEnergy = energy.Estimate

// QueueConfig describes an online-serving simulation (Poisson arrivals,
// wave batching).
type QueueConfig = serve.QueueConfig

// QueueMetrics aggregates an online-serving simulation.
type QueueMetrics = serve.QueueMetrics

// SimulateQueue runs the online-serving simulation on the engine's cost
// model.
var SimulateQueue = serve.SimulateQueue

// PaperProtocol serves the §III-B workload (128-token prompts repeated 10
// times, metrics averaged with the first run discarded).
var PaperProtocol = serve.PaperProtocol

// Conserved is the admission-ledger invariant shared by the queue
// simulator and the live daemon: every arrival lands in exactly one of
// the admitted/shed buckets.
var Conserved = serve.Conserved

// SwappableStore atomically hot-swaps a weight store under in-flight
// readers; retired generations close after their last reader.
type SwappableStore = infer.SwappableStore

// NewSwappable wraps a weight store (and its closer) for hot reload.
var NewSwappable = infer.NewSwappable

// ServerConfig configures the live serving daemon (see cmd/helmd).
type ServerConfig = server.Config

// ServerStats is the daemon's counter snapshot (the /statz body).
type ServerStats = server.Stats

// BreakerConfig tunes the daemon's storage circuit breaker.
type BreakerConfig = server.BreakerConfig

// NewServer starts the live serving daemon: admission control, one
// continuous batcher over a hot-swappable store chain, a storage
// circuit breaker, and graceful drain.
var NewServer = server.New

// GatewayConfig configures the fleet gateway (see cmd/helmgw).
type GatewayConfig = gateway.Config

// GatewayBackendConfig describes one replica a gateway fronts.
type GatewayBackendConfig = gateway.BackendConfig

// FleetStats is the gateway's ledger snapshot (the /fleetz body).
type FleetStats = gateway.FleetStats

// NewGateway starts the fleet gateway: pluggable routing across N
// replicas, health probing, per-backend circuit breakers, bounded
// failover retries onto different healthy replicas, and administrative
// drain-out of replicas.
var NewGateway = gateway.New

// FleetConserved is the fleet-level admission invariant: every gateway
// arrival is finalized by exactly one replica or lands in exactly one
// gateway shed bucket.
var FleetConserved = serve.FleetConserved
