package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"marketscope/internal/durable"
)

// fsCounters are what the traced filesystem observed. Write bytes are split
// by the file they land in: the write-ahead log or a snapshot generation.
type fsCounters struct {
	walBytes, snapshotBytes atomic.Int64
	fsyncs                  atomic.Int64
	fsyncNanos              atomic.Int64
	// pageReadBytes counts positioned reads made while no store operation
	// (open, recovery, apply) is in progress: the page-ins queries trigger.
	pageReadBytes   atomic.Int64
	snapshotRenames atomic.Int64
}

// tracedFS wraps durable.FS from the outside: the store only sees another
// filesystem, the benchmark sees every write, sync and positioned read.
type tracedFS struct {
	inner durable.FS
	t     *tracer
	c     *fsCounters
}

func newTracedFS(t *tracer) *tracedFS {
	return &tracedFS{inner: durable.OSFS, t: t, c: &fsCounters{}}
}

// isSnapshot reports whether a data-dir file belongs to a snapshot generation
// (final or temp name); everything else the store writes is the WAL.
func isSnapshot(name string) bool { return strings.HasPrefix(filepath.Base(name), "snap-") }

func (f *tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (durable.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, snapshot: isSnapshot(name)}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	err := f.inner.Rename(oldpath, newpath)
	if err == nil && isSnapshot(newpath) && strings.HasSuffix(oldpath, ".tmp") {
		f.c.snapshotRenames.Add(1)
	}
	return err
}

func (f *tracedFS) Remove(name string) error                     { return f.inner.Remove(name) }
func (f *tracedFS) MkdirAll(path string, perm fs.FileMode) error { return f.inner.MkdirAll(path, perm) }
func (f *tracedFS) ReadDir(dir string) ([]string, error)         { return f.inner.ReadDir(dir) }
func (f *tracedFS) Truncate(name string, size int64) error       { return f.inner.Truncate(name, size) }

func (f *tracedFS) SyncDir(dir string) error {
	return f.timedSync(func() error { return f.inner.SyncDir(dir) })
}

// ReadFile keeps the store's whole-file fast path, which the wrapped
// filesystem offers, so tracing does not change how recovery reads.
func (f *tracedFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// timedSync runs one fsync under a durable.fsync span.
func (f *tracedFS) timedSync(sync func() error) error {
	id := f.t.begin("durable.fsync", f.t.ambientSpan(), 0)
	start := time.Now()
	err := sync()
	f.c.fsyncNanos.Add(int64(time.Since(start)))
	f.c.fsyncs.Add(1)
	f.t.end(id)
	return err
}

type tracedFile struct {
	durable.File
	fs       *tracedFS
	snapshot bool
}

func (tf *tracedFile) Write(p []byte) (int, error) {
	n, err := tf.File.Write(p)
	if tf.snapshot {
		tf.fs.c.snapshotBytes.Add(int64(n))
	} else {
		tf.fs.c.walBytes.Add(int64(n))
	}
	return n, err
}

func (tf *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := tf.File.ReadAt(p, off)
	if tf.fs.t.ambientSpan() == 0 {
		tf.fs.c.pageReadBytes.Add(int64(n))
	}
	return n, err
}

func (tf *tracedFile) Sync() error { return tf.fs.timedSync(tf.File.Sync) }
