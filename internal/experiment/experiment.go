// Package experiment is the declarative scenario-matrix harness for
// robustness and hostile-network studies: it crosses attacks (Byzantine
// workers poisoning gradients, lying about clocks, flooding pushes) with
// defenses (robust aggregators, the server's anomaly guard) over N trials
// per cell, runs real training through internal/trainer for each cell, and
// aggregates the outcomes into a detection/robustness table — accuracy,
// dropped updates, evictions, and attacker-detection TPR/FPR — renderable
// as text or JSON.
//
// A second, simulator-backed matrix (TimingMatrix) crosses synchronization
// paradigms with hostile links (Markov-modulated flapping and partitioned
// links) to measure the timing side: finish time, throughput and staleness.
package experiment

import (
	"fmt"

	"dssp/internal/ps"
	"dssp/internal/trainer"
)

// Attack is one adversary column of the matrix: which worker slots are
// Byzantine and how they corrupt their pushes. The zero Attack (no workers)
// is the clean baseline.
type Attack struct {
	// Name labels the attack in reports.
	Name string
	// Workers lists the attacker slots.
	Workers []int
	// Adversary is the behaviour each listed worker exhibits.
	Adversary trainer.Adversary
}

// adversaries builds the trainer's per-worker adversary map.
func (a Attack) adversaries() map[int]trainer.Adversary {
	if len(a.Workers) == 0 {
		return nil
	}
	m := make(map[int]trainer.Adversary, len(a.Workers))
	for _, w := range a.Workers {
		m[w] = a.Adversary
	}
	return m
}

// Defense is one defense row of the matrix: the aggregator installed in the
// server's apply pipeline and the anomaly guard's configuration. The zero
// Defense (plain sum, no guard) is the undefended baseline.
type Defense struct {
	// Name labels the defense in reports.
	Name string
	// Aggregator selects the gradient combiner (sum, clipped, trimmed-mean,
	// median).
	Aggregator ps.AggregatorConfig
	// Guard configures push screening and eviction.
	Guard ps.GuardConfig
}

// Standard matrix axes.

// CleanBaseline is the no-attack column.
func CleanBaseline() Attack { return Attack{Name: "clean"} }

// GradScaleAttack makes the listed workers push gradients scaled by factor
// (negative factors push ascent).
func GradScaleAttack(factor float64, workers ...int) Attack {
	return Attack{
		Name:      fmt.Sprintf("grad-scale(%g)", factor),
		Workers:   workers,
		Adversary: trainer.Adversary{GradScale: factor},
	}
}

// SumDefense is the undefended baseline: plain summation, no guard.
func SumDefense() Defense { return Defense{Name: "sum"} }

// TrimmedMeanDefense aggregates over windows with the coordinate-wise
// trimmed mean.
func TrimmedMeanDefense() Defense {
	return Defense{Name: "trimmed-mean", Aggregator: ps.AggregatorConfig{Kind: ps.AggTrimmedMean}}
}

// GuardedDefense adds the anomaly guard to another defense.
func GuardedDefense(base Defense) Defense {
	base.Name += "+guard"
	base.Guard = ps.GuardConfig{Enabled: true}
	return base
}

// ScenarioConfig is the declarative description of one training matrix: a
// base training run crossed with every (attack, defense) pair, repeated
// Trials times per cell under distinct seeds.
type ScenarioConfig struct {
	// Name titles the report.
	Name string
	// Base is the training run every cell derives from. Its Adversaries,
	// Aggregator and Guard fields are overwritten per cell; everything
	// else (model, dataset, paradigm, workers, epochs, ...) is shared.
	Base trainer.Config
	// Attacks are the matrix columns; empty defaults to a clean baseline
	// plus a 1-attacker gradient-scale attack.
	Attacks []Attack
	// Defenses are the matrix rows; empty defaults to plain sum and
	// trimmed-mean.
	Defenses []Defense
	// Trials is how many runs aggregate into each cell; 0 means 1.
	Trials int
}

// withDefaults fills the grid axes and trial count.
func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Trials <= 0 {
		c.Trials = 1
	}
	if len(c.Attacks) == 0 {
		attacker := c.Base.Workers - 1
		if attacker < 0 {
			attacker = 0
		}
		c.Attacks = []Attack{CleanBaseline(), GradScaleAttack(-10, attacker)}
	}
	if len(c.Defenses) == 0 {
		c.Defenses = []Defense{SumDefense(), TrimmedMeanDefense()}
	}
	return c
}

// validate rejects grids that cannot run.
func (c ScenarioConfig) validate() error {
	for _, a := range c.Attacks {
		for _, w := range a.Workers {
			if w < 0 || w >= c.Base.Workers {
				return fmt.Errorf("experiment: attack %q names worker %d outside [0,%d)", a.Name, w, c.Base.Workers)
			}
		}
	}
	for _, d := range c.Defenses {
		if err := d.Aggregator.Normalized().Validate(); err != nil {
			return fmt.Errorf("experiment: defense %q: %w", d.Name, err)
		}
	}
	return nil
}

// Run executes the full matrix and aggregates each cell.
func Run(cfg ScenarioConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	report := &Report{Name: cfg.Name, Trials: cfg.Trials}
	for _, atk := range cfg.Attacks {
		for _, def := range cfg.Defenses {
			cell, err := runCell(cfg, atk, def)
			if err != nil {
				return nil, fmt.Errorf("experiment: cell (%s, %s): %w", atk.Name, def.Name, err)
			}
			report.Cells = append(report.Cells, cell)
		}
	}
	return report, nil
}

// runCell runs one (attack, defense) cell's trials and aggregates them.
func runCell(cfg ScenarioConfig, atk Attack, def Defense) (Cell, error) {
	attackers := make(map[int]bool, len(atk.Workers))
	for _, w := range atk.Workers {
		attackers[w] = true
	}
	cell := Cell{
		Attack:      atk.Name,
		Defense:     def.Name,
		Attackers:   len(atk.Workers),
		MinAccuracy: 1,
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		run := cfg.Base
		run.Adversaries = atk.adversaries()
		run.Aggregator = def.Aggregator
		run.Guard = def.Guard
		// Distinct seeds decorrelate trials; the base seed keeps trial 0
		// reproducible against a single direct trainer.Run.
		run.Seed = cfg.Base.Seed + int64(trial)*7919
		res, err := trainer.Run(run)
		if err != nil {
			return Cell{}, fmt.Errorf("trial %d: %w", trial, err)
		}
		cell.observe(res, attackers, cfg.Base.Workers)
	}
	cell.finalize(cfg.Trials)
	return cell, nil
}

// observe folds one trial's result into the cell's accumulators.
func (c *Cell) observe(res *trainer.Result, attackers map[int]bool, workers int) {
	c.MeanAccuracy += res.FinalAccuracy
	if res.FinalAccuracy < c.MinAccuracy {
		c.MinAccuracy = res.FinalAccuracy
	}
	c.MeanDropped += float64(res.Dropped)
	c.MeanEvictions += float64(len(res.Guard.Evicted))
	if c.Pipeline == nil {
		c.Pipeline = make(map[string]float64, len(res.Metrics))
	}
	for k, v := range res.Metrics {
		c.Pipeline[k] += v
	}

	// Detection rates count a worker as detected when the guard flagged it
	// at least once. TPR averages over attacker slots, FPR over honest
	// ones; without a guard both stay 0 (nothing is ever flagged).
	for w, flags := range res.Guard.Flags {
		if flags == 0 {
			continue
		}
		if attackers[w] {
			c.tpHits++
		} else {
			c.fpHits++
		}
	}
	c.tpSlots += len(attackers)
	c.fpSlots += workers - len(attackers)
}

// finalize turns accumulators into per-trial means and rates.
func (c *Cell) finalize(trials int) {
	n := float64(trials)
	c.MeanAccuracy /= n
	c.MeanDropped /= n
	c.MeanEvictions /= n
	if c.tpSlots > 0 {
		c.TPR = float64(c.tpHits) / float64(c.tpSlots)
	}
	if c.fpSlots > 0 {
		c.FPR = float64(c.fpHits) / float64(c.fpSlots)
	}
	for k := range c.Pipeline {
		c.Pipeline[k] /= n
	}
}
