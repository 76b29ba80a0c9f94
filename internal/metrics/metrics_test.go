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
	s.Add(10*time.Second, 0.3)
	s.Add(20*time.Second, 0.5)
	s.Add(30*time.Second, 0.45)
	if len(s.points) != 3 {
		t.Fatalf("Len = %d", len(s.points))
	}
	last, ok := s.Last()
	if !ok || last.Value != 0.45 {
		t.Fatalf("Last = %+v,%v", last, ok)
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
