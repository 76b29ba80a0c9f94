// Package dssp is a Go implementation of Dynamic Stale Synchronous Parallel
// distributed training (Zhao et al., ICDCS 2019) together with the parameter
// server framework it runs on and the classic synchronization paradigms it is
// compared against (BSP, ASP and SSP).
//
// The package offers two entry points:
//
//   - Train runs real data-parallel SGD on a single machine: worker
//     goroutines with their own model replicas exchange gradients and weights
//     with an in-process parameter server under the chosen paradigm.
//   - Serve and RunWorker deploy the same parameter server and worker over
//     TCP for multi-process or multi-machine training; ServeRelay adds the
//     aggregation tier between them.
//
// The paper's evaluation is regenerated on the built-in cluster simulator by
// the dsspsim command (dsspsim -exp all), not through this package. The
// underlying building blocks (synchronization policies, tensors, neural
// network layers, the simulator) live in internal packages; this package is
// the stable public surface.
package dssp

import "dssp/internal/core"

// Paradigm identifies a synchronization paradigm.
type Paradigm = core.Paradigm

// Supported paradigms.
const (
	// BSP is Bulk Synchronous Parallel: all workers synchronize at a barrier
	// every iteration.
	BSP = core.ParadigmBSP
	// ASP is Asynchronous Parallel: workers never wait for each other.
	ASP = core.ParadigmASP
	// SSP is Stale Synchronous Parallel with a fixed staleness threshold.
	SSP = core.ParadigmSSP
	// DSSP is the paper's Dynamic Stale Synchronous Parallel: the staleness
	// threshold is chosen at run time from a range [sL, sL+Range].
	DSSP = core.ParadigmDSSP
)

// Sync selects a synchronization paradigm and its parameters (the paper's
// evaluation uses Staleness=3, Range=12, i.e. DSSP thresholds in [3, 15]).
// Its Workers field is filled in from the run's worker count.
type Sync = core.PolicyConfig

// DefaultDSSP returns the paper's DSSP configuration: sL=3, r=12.
func DefaultDSSP() Sync { return Sync{Paradigm: DSSP, Staleness: 3, Range: 12} }
