package ssd

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// store is the backing for a file's pages. Implementations are not
// concurrency-safe; File serializes access.
//
// Alongside page data every store keeps a per-page CRC32C sidecar region,
// written by setCRC on each page program and consulted by getCRC on each
// read. The sidecar is separate from the page payload so page geometry and
// existing offsets are unchanged; pages adopted from files written before
// checksumming existed simply have no recorded CRC and read unverified.
type store interface {
	readPage(idx int, buf []byte) error
	writePage(idx int, data []byte) error // idx == numPages() extends
	setCRC(idx int, crc uint32) error
	getCRC(idx int) (uint32, bool)
	numPages() int
	truncate(pages int) error
	close() error
}

// crcSidecarSuffix names the on-disk checksum region of a disk-backed
// file. Sidecar files are store metadata, not device files: adoptDir
// skips them and they are invisible to ListFiles.
const crcSidecarSuffix = ".mlvc-crc"

// crcEntrySize is the sidecar record: little-endian uint32 CRC32C plus a
// uint32 valid marker (1 = recorded), so a zero CRC is distinguishable
// from a never-written slot in a sparse or pre-extended sidecar.
const crcEntrySize = 8

// memStore keeps pages in RAM.
type memStore struct {
	pageSize int
	pages    [][]byte
	crcs     []uint32
	known    []bool
}

func newMemStore(pageSize int) *memStore {
	return &memStore{pageSize: pageSize}
}

func (m *memStore) readPage(idx int, buf []byte) error {
	copy(buf, m.pages[idx])
	return nil
}

// writePage extends the store by reusing the page memory a truncate left
// in the backing array, when there is some, so a log file truncated and
// rewritten every superstep allocates its pages once.
func (m *memStore) writePage(idx int, data []byte) error {
	if idx == len(m.pages) {
		if idx < cap(m.pages) && m.pages[:idx+1][idx] != nil {
			m.pages = m.pages[:idx+1]
		} else {
			m.pages = append(m.pages, make([]byte, m.pageSize))
		}
	}
	copy(m.pages[idx], data)
	return nil
}

func (m *memStore) setCRC(idx int, crc uint32) error {
	for len(m.crcs) <= idx {
		m.crcs = append(m.crcs, 0)
		m.known = append(m.known, false)
	}
	m.crcs[idx] = crc
	m.known[idx] = true
	return nil
}

func (m *memStore) getCRC(idx int) (uint32, bool) {
	if idx < 0 || idx >= len(m.crcs) || !m.known[idx] {
		return 0, false
	}
	return m.crcs[idx], true
}

func (m *memStore) numPages() int { return len(m.pages) }

func (m *memStore) truncate(pages int) error {
	if pages < len(m.pages) {
		m.pages = m.pages[:pages]
	}
	if pages < len(m.crcs) {
		m.crcs = m.crcs[:pages]
		m.known = m.known[:pages]
	}
	return nil
}

func (m *memStore) close() error {
	m.pages = nil
	m.crcs = nil
	m.known = nil
	return nil
}

// diskStore keeps pages in a real file, for the CLI tools. Checksums
// persist in a sidecar file next to the backing file so a later process
// (resume, scrub) can verify pages it did not write.
type diskStore struct {
	pageSize int
	f        *os.File
	sc       *os.File // checksum sidecar
	npages   int
	crcs     []uint32
	known    []bool
}

func newDiskStore(dir, name string, pageSize int) (*diskStore, error) {
	path := filepath.Join(dir, sanitize(name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("ssd: mkdir for %q: %w", name, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ssd: open backing for %q: %w", name, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sc, err := os.OpenFile(path+crcSidecarSuffix, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ssd: open checksum sidecar for %q: %w", name, err)
	}
	d := &diskStore{pageSize: pageSize, f: f, sc: sc, npages: int(st.Size()) / pageSize}
	if err := d.loadSidecar(); err != nil {
		f.Close()
		sc.Close()
		return nil, fmt.Errorf("ssd: load checksum sidecar for %q: %w", name, err)
	}
	return d, nil
}

// loadSidecar reads the whole sidecar into memory. A short or missing
// sidecar (older process, partial write) leaves the tail unverified
// rather than failing the open.
func (d *diskStore) loadSidecar() error {
	st, err := d.sc.Stat()
	if err != nil {
		return err
	}
	n := int(st.Size()) / crcEntrySize
	if n == 0 {
		return nil
	}
	raw := make([]byte, n*crcEntrySize)
	if _, err := d.sc.ReadAt(raw, 0); err != nil {
		return err
	}
	d.crcs = make([]uint32, n)
	d.known = make([]bool, n)
	for i := 0; i < n; i++ {
		d.crcs[i] = binary.LittleEndian.Uint32(raw[i*crcEntrySize:])
		d.known[i] = binary.LittleEndian.Uint32(raw[i*crcEntrySize+4:]) == 1
	}
	return nil
}

func (d *diskStore) readPage(idx int, buf []byte) error {
	_, err := d.f.ReadAt(buf, int64(idx)*int64(d.pageSize))
	return err
}

func (d *diskStore) writePage(idx int, data []byte) error {
	if _, err := d.f.WriteAt(data, int64(idx)*int64(d.pageSize)); err != nil {
		return err
	}
	if idx >= d.npages {
		d.npages = idx + 1
	}
	return nil
}

func (d *diskStore) setCRC(idx int, crc uint32) error {
	for len(d.crcs) <= idx {
		d.crcs = append(d.crcs, 0)
		d.known = append(d.known, false)
	}
	d.crcs[idx] = crc
	d.known[idx] = true
	var rec [crcEntrySize]byte
	binary.LittleEndian.PutUint32(rec[:], crc)
	binary.LittleEndian.PutUint32(rec[4:], 1)
	_, err := d.sc.WriteAt(rec[:], int64(idx)*crcEntrySize)
	return err
}

func (d *diskStore) getCRC(idx int) (uint32, bool) {
	if idx < 0 || idx >= len(d.crcs) || !d.known[idx] {
		return 0, false
	}
	return d.crcs[idx], true
}

func (d *diskStore) numPages() int { return d.npages }

func (d *diskStore) truncate(pages int) error {
	if err := d.f.Truncate(int64(pages) * int64(d.pageSize)); err != nil {
		return err
	}
	if pages < d.npages {
		d.npages = pages
	}
	if pages < len(d.crcs) {
		d.crcs = d.crcs[:pages]
		d.known = d.known[:pages]
		if err := d.sc.Truncate(int64(pages) * crcEntrySize); err != nil {
			return err
		}
	}
	return nil
}

func (d *diskStore) close() error {
	err := d.f.Close()
	if cerr := d.sc.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitize maps a device file name to a filesystem-safe relative path.
func sanitize(name string) string {
	r := strings.NewReplacer("..", "_", ":", "_", "\\", "_")
	return r.Replace(name)
}

// isSidecar reports whether a directory entry is store metadata rather
// than a device file.
func isSidecar(name string) bool {
	return strings.HasSuffix(name, crcSidecarSuffix)
}
