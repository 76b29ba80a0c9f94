package core

import (
	"testing"
)

func TestParadigmStringRoundTrip(t *testing.T) {
	paradigms := []Paradigm{
		ParadigmBSP, ParadigmASP, ParadigmSSP, ParadigmDSSP,
	}
	for _, p := range paradigms {
		got, err := ParseParadigm(p.String())
		if err != nil {
			t.Errorf("ParseParadigm(%q): %v", p.String(), err)
			continue
		}
		if got != p {
			t.Errorf("round trip of %v gave %v", p, got)
		}
	}
}

func TestParseParadigmUnknown(t *testing.T) {
	for _, name := range []string{"definitely-not-a-paradigm", "BoundedDelay"} {
		if _, err := ParseParadigm(name); err == nil {
			t.Errorf("ParseParadigm(%q): expected error for unknown paradigm name", name)
		}
	}
}

func TestParadigmStringUnknownValue(t *testing.T) {
	if got := Paradigm(99).String(); got != "Paradigm(99)" {
		t.Fatalf("unexpected string %q", got)
	}
}

func TestNewPolicyBuildsEveryParadigm(t *testing.T) {
	cases := []struct {
		cfg       PolicyConfig
		wantBound int
		wantOK    bool
	}{
		{PolicyConfig{Paradigm: ParadigmBSP, Workers: 4}, 0, true},
		{PolicyConfig{Paradigm: ParadigmASP, Workers: 4}, 0, false},
		{PolicyConfig{Paradigm: ParadigmSSP, Workers: 4, Staleness: 3}, 3, true},
		{PolicyConfig{Paradigm: ParadigmDSSP, Workers: 4, Staleness: 3, Range: 12}, 15, true},
	}
	for _, tc := range cases {
		p, err := NewPolicy(tc.cfg)
		if err != nil {
			t.Errorf("NewPolicy(%+v): %v", tc.cfg, err)
			continue
		}
		if b, ok := p.StalenessBound(); b != tc.wantBound || ok != tc.wantOK {
			t.Errorf("NewPolicy(%+v).StalenessBound() = %d, %v, want %d, %v", tc.cfg, b, ok, tc.wantBound, tc.wantOK)
		}
		if p.NumWorkers() != tc.cfg.Workers {
			t.Errorf("NewPolicy(%+v).NumWorkers() = %d, want %d", tc.cfg, p.NumWorkers(), tc.cfg.Workers)
		}
	}
}

func TestNewPolicyRejectsUnknownParadigm(t *testing.T) {
	if _, err := NewPolicy(PolicyConfig{Paradigm: Paradigm(42), Workers: 2}); err == nil {
		t.Fatal("expected error for unknown paradigm")
	}
}

func TestNewPolicyPropagatesConstructorErrors(t *testing.T) {
	bad := []PolicyConfig{
		{Paradigm: ParadigmBSP, Workers: 0},
		{Paradigm: ParadigmSSP, Workers: 2, Staleness: -1},
		{Paradigm: ParadigmDSSP, Workers: 2, Staleness: -1, Range: 3},
	}
	for _, cfg := range bad {
		if _, err := NewPolicy(cfg); err == nil {
			t.Errorf("NewPolicy(%+v): expected error", cfg)
		}
	}
}

func TestPolicyConfigDescribe(t *testing.T) {
	cases := []struct {
		cfg  PolicyConfig
		want string
	}{
		{PolicyConfig{Paradigm: ParadigmBSP}, "BSP"},
		{PolicyConfig{Paradigm: ParadigmASP}, "ASP"},
		{PolicyConfig{Paradigm: ParadigmSSP, Staleness: 7}, "SSP s=7"},
		{PolicyConfig{Paradigm: ParadigmDSSP, Staleness: 3, Range: 12}, "DSSP sL=3 r=12"},
	}
	for _, tc := range cases {
		if got := tc.cfg.Describe(); got != tc.want {
			t.Errorf("Describe(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}
