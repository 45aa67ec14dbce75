package core

import (
	"errors"
	"testing"

	"repro/internal/lsh"
)

func TestTuneMPicksLargestSatisfyingM(t *testing.T) {
	l := mixture(t, 600, 16, 8, 0.03, 80)
	m, sweep, err := TuneM(l.Points, Config{Seed: 81}, 0.5, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) == 0 {
		t.Fatal("empty sweep")
	}
	// The chosen M must satisfy the floor; every larger swept M that
	// satisfies it must not exceed the choice.
	var chosen *TuneReport
	for i := range sweep {
		if sweep[i].M == m {
			chosen = &sweep[i]
		}
	}
	if chosen == nil {
		t.Fatalf("chosen M=%d missing from sweep", m)
	}
	if chosen.FnormRatio < 0.5 {
		t.Fatalf("chosen M=%d has ratio %v < floor", m, chosen.FnormRatio)
	}
	for _, r := range sweep {
		if r.M > m && r.FnormRatio >= 0.5 {
			t.Fatalf("M=%d also satisfies the floor but was not chosen over %d", r.M, m)
		}
	}
	// Gram fraction must shrink (weakly) along the sweep overall: last
	// below first.
	if sweep[len(sweep)-1].GramFrac >= sweep[0].GramFrac {
		t.Fatalf("gram fraction did not fall across the sweep: %+v", sweep)
	}
}

func TestTuneMValidation(t *testing.T) {
	l := mixture(t, 50, 4, 2, 0.05, 82)
	if _, _, err := TuneM(l.Points, Config{}, 0, 100); err == nil {
		t.Fatal("expected error for zero floor")
	}
	if _, _, err := TuneM(l.Points, Config{}, 1.5, 100); err == nil {
		t.Fatal("expected error for floor > 1")
	}
	if _, _, err := TuneM(matrixOfSize(1, 2), Config{}, 0.5, 100); err == nil {
		t.Fatal("expected error for single point")
	}
	sim, err := lsh.FitSimHash(l.Points, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := TuneM(l.Points, Config{Family: sim}, 0.5, 100); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Family set: err = %v, want ErrBadConfig", err)
	}
	if _, _, err := TuneM(l.Points, Config{P: 99}, 0.5, 100); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("P above every swept M: err = %v, want ErrBadConfig", err)
	}
	// P > 0 is only valid for M >= P, so the sweep starts there.
	_, sweep, err := TuneM(l.Points, Config{P: 2}, 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sweep[0].M != 2 {
		t.Fatalf("P=2: sweep starts at M=%d, want 2", sweep[0].M)
	}
}

func TestTuneMFeedsCluster(t *testing.T) {
	l := mixture(t, 400, 12, 4, 0.03, 83)
	m, _, err := TuneM(l.Points, Config{Seed: 84}, 0.4, 4000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bg, Source{Points: l.Points}, Config{K: 4, Seed: 84, M: m})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metricsAccuracy(l.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Fatalf("tuned run accuracy = %v", acc)
	}
}

// TestTuneMMeasuresTheRunPartition: every sweep entry must describe the
// partition Run builds at that M — the same ensemble (Tables,
// ProbeRadius) and the same P → radius rule — not a one-table stand-in.
func TestTuneMMeasuresTheRunPartition(t *testing.T) {
	l := mixture(t, 512, 16, 8, 0.05, 3)
	for _, cfg := range []Config{
		{K: 8, Seed: 5},
		{K: 8, Seed: 5, Tables: 4},
		{K: 8, Seed: 5, Tables: 4, ProbeRadius: 1},
	} {
		_, sweep, err := TuneM(l.Points, cfg, 0.5, 2000)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range sweep {
			at := cfg
			at.M = r.M
			res, err := Run(bg, Source{Points: l.Points}, at)
			if err != nil {
				t.Fatal(err)
			}
			if r.Buckets != len(res.Buckets) {
				t.Errorf("Tables=%d ProbeRadius=%d M=%d: sweep reports %d buckets, Cluster builds %d",
					cfg.Tables, cfg.ProbeRadius, r.M, r.Buckets, len(res.Buckets))
			}
		}
	}
}
