// Fixture for syncerr: discarded durability errors in every statement
// shape the analyzer must catch, and the handled/waived forms it must
// accept.
package closer

import (
	"bufio"
	"net"
	"os"

	"centuryscale/internal/vfs"
	"internal/tsdb"
)

func bad(f *os.File, db *tsdb.DB, w *bufio.Writer) {
	f.Close()       // want `os\.File\.Close discards its error`
	f.Sync()        // want `os\.File\.Sync discards its error`
	f.Truncate(0)   // want `os\.File\.Truncate discards its error`
	defer f.Close() // want `defer os\.File\.Close discards its error`
	db.Close()      // want `tsdb\.DB\.Close discards its error`
	db.Sync()       // want `tsdb\.DB\.Sync discards its error`
	w.Flush()       // want `bufio\.Writer\.Flush discards its error`
}

func good(f *os.File, db *tsdb.DB) error {
	// Explicit blank assignment is a visible, greppable decision.
	_ = f.Close()
	//lint:syncerr read-only handle; close errors cannot lose data
	f.Close()
	if err := db.Close(); err != nil {
		return err
	}
	return f.Sync()
}

// Close on a non-durability receiver (a net.Conn) is another analyzer's
// business, not syncerr's.
func irrelevant(c net.Conn) {
	c.Close()
}

// The disk seam's file is a durability type wherever it is used.
func badSeam(f vfs.File) {
	f.Close()    // want `vfs\.File\.Close discards its error`
	_ = f.Sync() // explicit discard: fine
}
