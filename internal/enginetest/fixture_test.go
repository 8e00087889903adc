package enginetest_test

import (
	"path/filepath"
	"testing"

	"github.com/flpsim/flp/internal/enginetest"
	"github.com/flpsim/flp/internal/model"
	"github.com/flpsim/flp/internal/protogen"
)

// TestFixtureRoundTrip pins the fixture file format.
func TestFixtureRoundTrip(t *testing.T) {
	sp := protogen.Derive(21, protogen.DefaultDials(3))
	fx := enginetest.NewFixture(sp, model.Inputs{0, 1, 1}, 300, "unit test")
	path := filepath.Join(t.TempDir(), "sub", "fx.json")
	if err := enginetest.SaveFixture(path, fx); err != nil {
		t.Fatal(err)
	}
	back, err := enginetest.LoadFixture(path)
	if err != nil {
		t.Fatal(err)
	}
	if back != fx {
		t.Fatalf("round trip changed the fixture:\n  saved  %+v\n  loaded %+v", fx, back)
	}
	c, err := back.Case()
	if err != nil {
		t.Fatalf("fixture does not decode to a case: %v", err)
	}
	if in := c.Inputs; len(in) != 3 || in[0] != model.V0 || in[1] != model.V1 || in[2] != model.V1 {
		t.Errorf("inputs decoded as %v", in)
	}

	// Corrupt inputs must be rejected at load time.
	bad := fx
	bad.Inputs = "01x"
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := enginetest.SaveFixture(badPath, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := enginetest.LoadFixture(badPath); err == nil {
		t.Error("fixture with non-bit inputs loaded")
	}
}
