// Package vfs is the disk as the archive's writers see it: every write,
// fsync, truncate, rename and unlink of the WAL (internal/tsdb) and of
// the checkpoint (internal/cloud) goes through one FS, so one fault
// injector stands in for the disk under both (DESIGN.md S57). Reads go
// straight to os.
package vfs

import (
	"errors"
	"os"
)

// File is an open file as a writer sees it.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS is the set of disk operations the writers make.
type FS interface {
	Mkdir(dir string) error // an existing directory is not an error
	OpenAppend(path string) (File, error)
	Rename(from, to string) error
	Remove(path string) error
	SyncDir(dir string) error // makes the entries made in dir durable
}

// OS is the real disk. Only tests substitute another FS.
type OS struct{}

func (OS) Mkdir(dir string) error {
	if err := os.Mkdir(dir, 0o755); !os.IsExist(err) {
		return err
	}
	return nil
}
func (OS) Rename(from, to string) error { return os.Rename(from, to) }
func (OS) Remove(path string) error     { return os.Remove(path) }
func (OS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
