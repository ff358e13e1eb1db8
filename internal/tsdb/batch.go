package tsdb

// Group commit: an acknowledgement is two steps. AppendDeferred puts
// records into the log buffer and the memtable and returns an LSN; Flush
// blocks until the log's flush has passed that LSN. A frame of N packets
// spread over every shard is N cheap deferred appends and one Flush —
// one write(2) and, under SyncAlways, one fsync — and concurrent frames
// share flushes (DESIGN.md S40). The WAL-before-ack contract is the
// caller's to keep: nothing AppendDeferred returned an LSN for may be
// acknowledged before Flush of that LSN has returned nil.

// AppendDeferred logs and stores pts without waiting for the disk, one
// shard critical section per run of points hashing to the same shard
// (callers that have bucketed a frame by ShardIndex pay one per bucket).
// The points are readable at once; they are acknowledgeable after
// Flush(lsn). A memory-only engine returns 0.
func (db *DB) AppendDeferred(pts []Point) (lsn LSN) {
	n := len(db.shards)
	for rest := pts; len(rest) > 0; {
		si := ShardIndex(rest[0].Device, n)
		run := 1
		for run < len(rest) && ShardIndex(rest[run].Device, n) == si {
			run++
		}
		lsn = db.shards[si].append(rest[:run])
		rest = rest[run:]
	}
	db.appended.Add(uint64(len(pts)))
	return lsn
}

// Flush blocks until every record at or below lsn is on disk as the
// policy defines it: written under SyncInterval and SyncNever, written
// and fsynced under SyncAlways. Callers already covered return without
// I/O, and concurrent callers share one flush.
//
// An error means nothing at or below lsn may be acknowledged. Nothing is
// lost: the records stay in memory and in the log buffer and the next
// flush retries them, so a sender's re-offer finds them as duplicates —
// whose acknowledgement must wait on Flush(LogEnd()) in turn. While the
// log is in this failed state every Flush, whatever its lsn, retries
// first and fails if the retry does.
func (db *DB) Flush(lsn LSN) error {
	if db.wal == nil {
		return nil
	}
	return db.wal.flush(lsn)
}

// LogEnd returns the LSN of the last record appended so far: the flush
// barrier for a caller that must not acknowledge before records others
// appended — the originals of the duplicates it saw — are on disk.
func (db *DB) LogEnd() LSN {
	if db.wal == nil {
		return 0
	}
	return LSN(db.wal.appended.Load())
}

// AppendBatch durably stores a group of points: a deferred append and
// one flush, however many shards the group touches. An error means the
// group must not be acknowledged (see Flush for what became of it).
//
// Allocations: 0 per frame, measured by TestAppendAllocBudget.
func (db *DB) AppendBatch(pts []Point) error {
	if err := db.Flush(db.AppendDeferred(pts)); err != nil {
		db.appendErrors.Add(uint64(len(pts)))
		return err
	}
	return nil
}

// GroupCommits reports how many log flushes wrote at least one record —
// the denominator an operator divides appended by to see the realized
// batching factor.
func (db *DB) GroupCommits() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.flushes.Load()
}
