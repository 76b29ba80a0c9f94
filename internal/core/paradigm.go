package core

import "fmt"

// Paradigm enumerates the synchronization paradigms available in this
// library.
type Paradigm int

// Supported paradigms. BSP, ASP and SSP follow the literature; DSSP is the
// paper's contribution.
const (
	ParadigmBSP Paradigm = iota + 1
	ParadigmASP
	ParadigmSSP
	ParadigmDSSP
)

// paradigmNames is the one table String and ParseParadigm read.
var paradigmNames = [...]string{
	ParadigmBSP:  "BSP",
	ParadigmASP:  "ASP",
	ParadigmSSP:  "SSP",
	ParadigmDSSP: "DSSP",
}

// String returns the canonical short name of the paradigm.
func (p Paradigm) String() string {
	if p >= ParadigmBSP && int(p) < len(paradigmNames) {
		return paradigmNames[p]
	}
	return fmt.Sprintf("Paradigm(%d)", int(p))
}

// ParseParadigm converts a case-sensitive paradigm name (as produced by
// String) to its Paradigm value.
func ParseParadigm(name string) (Paradigm, error) {
	for p := ParadigmBSP; int(p) < len(paradigmNames); p++ {
		if paradigmNames[p] == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown paradigm %q", name)
}

// PolicyConfig collects the parameters needed to construct any Policy.
type PolicyConfig struct {
	// Paradigm selects which synchronization scheme to build.
	Paradigm Paradigm
	// Workers is the number of workers the policy coordinates. The root
	// package's entry points fill it in from the run's worker count.
	Workers int
	// Staleness is the fixed threshold s for SSP and the lower bound sL for
	// DSSP.
	Staleness int
	// Range is rmax = sU - sL for DSSP. Ignored by other paradigms.
	Range int
	// EnforceBound selects DSSP's Theorem-2-compliant mode in which the
	// iteration gap is hard-capped at sL+Range. The default (false) is the
	// listing-faithful behaviour of Algorithm 1. Ignored by other paradigms.
	EnforceBound bool
}

// NewPolicy constructs the Policy described by cfg.
func NewPolicy(cfg PolicyConfig) (Policy, error) {
	switch cfg.Paradigm {
	case ParadigmBSP:
		return NewBSP(cfg.Workers)
	case ParadigmASP:
		return NewASP(cfg.Workers)
	case ParadigmSSP:
		return NewSSP(cfg.Workers, cfg.Staleness)
	case ParadigmDSSP:
		p, err := NewDSSP(cfg.Workers, cfg.Staleness, cfg.Range)
		if err != nil {
			return nil, err
		}
		p.EnforceUpperBound(cfg.EnforceBound)
		return p, nil
	default:
		return nil, fmt.Errorf("core: unknown paradigm %v", cfg.Paradigm)
	}
}

// Validate reports whether the combination of paradigm and parameters is
// usable with the given number of workers.
func (cfg PolicyConfig) Validate(workers int) error {
	cfg.Workers = workers
	if _, err := NewPolicy(cfg); err != nil {
		return fmt.Errorf("dssp: invalid synchronization config: %w", err)
	}
	return nil
}

// Describe returns a human-readable description of the configuration,
// suitable for experiment labels (e.g. "SSP s=3", "DSSP sL=3 r=12").
func (cfg PolicyConfig) Describe() string {
	switch cfg.Paradigm {
	case ParadigmSSP:
		return fmt.Sprintf("SSP s=%d", cfg.Staleness)
	case ParadigmDSSP:
		return fmt.Sprintf("DSSP sL=%d r=%d", cfg.Staleness, cfg.Range)
	default:
		return cfg.Paradigm.String()
	}
}
