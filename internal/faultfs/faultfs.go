// Package faultfs is the filesystem seam of the persistence tier: the
// minimal interface the snapshot code writes through. Production code
// uses OS, a thin wrapper over package os; internal/oracle's tests
// substitute a fault-injecting implementation.
package faultfs

import (
	"io"
	"os"
)

// File is the write handle the snapshot writer needs: sequential writes,
// durability, close.
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Name() string
}

// FS is the filesystem surface of the snapshot tier. The five operations
// are exactly the atomic-rename protocol: create a temp file, write it,
// sync it, rename it over the committed path, sync the directory — plus
// Open/Remove for loading and quarantining.
type FS interface {
	Create(name string) (File, error)
	Open(name string) (io.ReadCloser, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory so a completed rename is durable.
	SyncDir(dir string) error
}

// OS is the production filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error)     { return os.Create(name) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
