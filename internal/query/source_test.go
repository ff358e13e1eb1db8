package query

import (
	"testing"
	"time"

	"centuryscale/internal/lpwan"
	"centuryscale/internal/rollup"
	"centuryscale/internal/tsdb"
)

// dbSource is the Source the tests read: a bare tsdb.DB, a rollup engine
// and the device set the test names, standing in for the
// endpoint's device registry.
type dbSource struct {
	db      *tsdb.DB
	rollups *rollup.Engine
	devs    []lpwan.EUI64
}

func (s dbSource) Cut(dev lpwan.EUI64, from, to time.Duration) Cut {
	return ReadCut(s.rollups, s.db, dev, from, to)
}

func (s dbSource) Devices() []lpwan.EUI64 { return s.devs }

// emptyEngine is a rollup engine at the default geometry that has folded
// nothing: every query over it reads the raw store.
func emptyEngine(t testing.TB) *rollup.Engine {
	t.Helper()
	e, err := rollup.New(rollup.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}
