package metrics

import (
	"testing"
	"time"
)

func TestTimeSeriesBasics(t *testing.T) {
	s := NewTimeSeries("accuracy")
	if s.Name() != "accuracy" {
		t.Fatalf("name %q", s.Name())
	}
	if _, ok := s.Last(); ok {
		t.Fatal("empty series should have no last point")
	}
	if _, ok := s.Max(); ok {
		t.Fatal("empty series should have no max")
	}
	s.Add(10*time.Second, 0.3)
	s.Add(20*time.Second, 0.5)
	s.Add(30*time.Second, 0.45)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	last, ok := s.Last()
	if !ok || last.Value != 0.45 {
		t.Fatalf("Last = %+v,%v", last, ok)
	}
	max, _ := s.Max()
	if max != 0.5 {
		t.Fatalf("Max = %v", max)
	}
	pts := s.Points()
	pts[0].Value = 99
	if s.points[0].Value == 99 {
		t.Fatal("Points must return a copy")
	}
}

func TestTimeSeriesTimeToReach(t *testing.T) {
	s := NewTimeSeries("acc")
	s.Add(1*time.Second, 0.2)
	s.Add(2*time.Second, 0.5)
	s.Add(3*time.Second, 0.67)
	s.Add(4*time.Second, 0.66)
	if d, ok := s.TimeToReach(0.5); !ok || d != 2*time.Second {
		t.Errorf("TimeToReach(0.5) = %v,%v", d, ok)
	}
	if d, ok := s.TimeToReach(0.67); !ok || d != 3*time.Second {
		t.Errorf("TimeToReach(0.67) = %v,%v", d, ok)
	}
	if _, ok := s.TimeToReach(0.9); ok {
		t.Error("TimeToReach(0.9) should fail")
	}
}

func TestTimeSeriesValueAt(t *testing.T) {
	s := NewTimeSeries("acc")
	s.Add(10*time.Second, 0.1)
	s.Add(20*time.Second, 0.2)
	if _, ok := s.ValueAt(5 * time.Second); ok {
		t.Error("ValueAt before first sample should fail")
	}
	if v, ok := s.ValueAt(15 * time.Second); !ok || v != 0.1 {
		t.Errorf("ValueAt(15s) = %v,%v", v, ok)
	}
	if v, _ := s.ValueAt(25 * time.Second); v != 0.2 {
		t.Errorf("ValueAt(25s) = %v", v)
	}
}

func TestTimeSeriesDownsample(t *testing.T) {
	s := NewTimeSeries("acc")
	for i := 0; i < 100; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	d := s.Downsample(5)
	if d.Len() != 5 {
		t.Fatalf("downsampled to %d points, want 5", d.Len())
	}
	pts := d.Points()
	if pts[0].Value != 0 || pts[4].Value != 99 {
		t.Fatalf("downsample endpoints wrong: %+v", pts)
	}
	if s.Downsample(0).Len() != 0 {
		t.Fatal("Downsample(0) should be empty")
	}
	small := NewTimeSeries("x")
	small.Add(time.Second, 1)
	if small.Downsample(10).Len() != 1 {
		t.Fatal("downsample of short series should keep all points")
	}
}
