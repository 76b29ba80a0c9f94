package core

import (
	"testing"
	"time"
)

func TestNewBackupBSPValidation(t *testing.T) {
	if _, err := NewBackupBSP(0, 0); err == nil {
		t.Error("NewBackupBSP(0,0): expected error")
	}
	if _, err := NewBackupBSP(4, 4); err == nil {
		t.Error("NewBackupBSP(4,4): expected error")
	}
	if _, err := NewBackupBSP(4, -1); err == nil {
		t.Error("NewBackupBSP(4,-1): expected error")
	}
}

func TestBackupBSPReleasesAfterFirstNArrivals(t *testing.T) {
	// 4 workers, 1 backup: the round completes after 3 arrivals.
	p := MustNewBackupBSP(4, 1)
	now := time.Unix(0, 0)
	if d := p.OnPush(0, now); len(d.Release) != 0 {
		t.Fatalf("premature release %v", d.Release)
	}
	if d := p.OnPush(1, now); len(d.Release) != 0 {
		t.Fatalf("premature release %v", d.Release)
	}
	d := p.OnPush(2, now)
	if len(d.Release) != 3 {
		t.Fatalf("expected release of the 3 arrived workers, got %v", d.Release)
	}
	if d.Drop {
		t.Fatal("in-round updates must not be dropped")
	}
	if p.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", p.Rounds())
	}
}

func TestBackupBSPDropsStragglerUpdate(t *testing.T) {
	p := MustNewBackupBSP(3, 1)
	now := time.Unix(0, 0)
	p.OnPush(0, now)
	d := p.OnPush(1, now)
	if len(d.Release) != 2 {
		t.Fatalf("round should complete after 2 of 3 arrivals, got %v", d.Release)
	}
	// Worker 2 is the straggler of round 0: its update is dropped and it is
	// released immediately so it can join the current round.
	d = p.OnPush(2, now)
	if !d.Drop {
		t.Fatal("straggler update must be dropped")
	}
	if len(d.Release) != 1 || d.Release[0] != 2 {
		t.Fatalf("straggler must be released immediately, got %v", d.Release)
	}
	if p.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", p.Dropped())
	}
}

func TestBackupBSPWithZeroBackupsIsBSP(t *testing.T) {
	backup := MustNewBackupBSP(3, 0)
	bsp := MustNewBSP(3)
	now := time.Unix(0, 0)
	order := []WorkerID{2, 0, 1, 0, 1, 2, 1, 2, 0}
	for i, w := range order {
		db := backup.OnPush(w, now)
		dr := bsp.OnPush(w, now)
		if len(db.Release) != len(dr.Release) {
			t.Fatalf("push %d: backup released %v, BSP released %v", i, db.Release, dr.Release)
		}
		if db.Drop {
			t.Fatalf("push %d: no updates may be dropped with zero backups", i)
		}
	}
}

func TestBackupBSPStragglersDoNotStallProgress(t *testing.T) {
	// Worker 2 is extremely slow; with one backup the other two workers keep
	// completing rounds at their own pace.
	durations := []time.Duration{time.Second, time.Second, time.Hour}
	drv := newReplayDriver(MustNewBackupBSP(3, 1), durations)
	if !drv.run(200) {
		t.Fatal("backup BSP deadlocked")
	}
	p := drv.policy.(*BackupBSP)
	if p.Rounds() < 90 {
		t.Fatalf("expected ~100 rounds despite the straggler, got %d", p.Rounds())
	}
}
