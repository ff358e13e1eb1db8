// Fixture for lockedio: blocking I/O under mutexes in every shape the
// analyzer must catch — direct syscalls, bulk JSON, net calls, I/O
// reached through a same-package helper — plus the shapes it must not
// flag: I/O after Unlock, I/O in a spawned goroutine, and annotated
// intentional sites.
package locked

import (
	"encoding/json"
	"net"
	"os"
	"sync"

	"centuryscale/internal/vfs"
)

type store struct {
	mu sync.Mutex
	rw sync.RWMutex
	f  *os.File
}

func (s *store) flushUnderLock() {
	s.mu.Lock()
	s.f.Sync() // want `os\.File\.Sync while "s\.mu" is held`
	s.mu.Unlock()
	s.f.Sync() // lock released: fine
}

func (s *store) encodeUnderDeferredUnlock(enc *json.Encoder, v map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	enc.Encode(v) // want `encoding/json\.Encoder\.Encode while "s\.mu" is held`
}

func (s *store) marshalInBranch(v map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v != nil {
		_, _ = json.Marshal(v) // want `encoding/json\.Marshal while "s\.mu" is held`
	}
}

// helper is clean in isolation; it only becomes a finding at a locked
// call site.
func (s *store) helper() { _ = s.f.Sync() }

func (s *store) transitive() {
	s.mu.Lock()
	s.helper() // want `call to helper reaches blocking I/O \(os\.File\.Sync\) while "s\.mu" is held`
	s.mu.Unlock()
}

func (s *store) dialUnderReadLock() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	_, _ = net.Dial("tcp", "localhost:1") // want `net\.Dial while "s\.rw" is held`
}

func (s *store) annotatedWALContract() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:lockedio WAL-before-ack ordering: the write must serialize with the insert
	_ = s.f.Sync()
}

func (s *store) goroutineDoesNotHoldTheLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { _ = s.f.Sync() }() // runs outside this critical section
}

func (s *store) branchUnlockDoesNotLeak(ready bool) {
	s.mu.Lock()
	if !ready {
		s.mu.Unlock()
		_ = s.f.Sync() // this path released the lock: fine
		return
	}
	s.mu.Unlock()
}

// The disk seam is an interface: its calls resolve to no summary, and
// ioMethods names them I/O so the WAL's and the checkpoint's fsyncs stay
// visible.
func (s *store) seamUnderLock(f vfs.File, fs vfs.FS) {
	s.mu.Lock()
	_ = f.Sync()          // want `centuryscale/internal/vfs\.File\.Sync while "s\.mu" is held`
	_ = fs.SyncDir("wal") // want `centuryscale/internal/vfs\.FS\.SyncDir while "s\.mu" is held`
	s.mu.Unlock()
	_ = f.Sync() // lock released: fine
}
