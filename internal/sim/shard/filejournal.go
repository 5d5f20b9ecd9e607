package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/store"
)

// FileJournal is the disk-backed Journal: one directory per shard, one
// file per record, committed with internal/store's discipline — stage
// under a tmp- name with a durable WriteFile (which fsyncs before
// returning), then atomically Rename into place. A kill-9 can
// therefore leave only (a) committed records, each protected by a
// trailing CRC, or (b) tmp- staging files, which Restore deletes. A
// record that is present but fails its magic, CRC or decode is a torn
// or corrupt entry and Restore reports it wrapping ErrJournalCorrupt:
// unlike the advice cache's recovery scan, a shard journal has no safe
// way to quarantine a checkpoint — replaying past a hole could publish
// different bits than the crashed incarnation already reported.
//
// Layout under root:
//
//	s<shard>/ck-<round>.rec        checkpoint Record
//	s<shard>/gh-<round>-<peer>.rec ghost payload GhostRecord
//	s<shard>/vw-<peer>-<ordinal>.rec view-body batch from peer
//	s<shard>/tmp-*                 staging (never read)
//
// All record bodies are varint-encoded (wire.go's idiom) behind a
// 3-byte magic and a kind byte, with a little-endian CRC-32C of
// everything before it as the last 4 bytes.
//
// The FS is pluggable so the chaos suite can inject write/read/rename
// failures and torn writes with store.FaultFS; production passes nil
// for the real filesystem.
type FileJournal struct {
	fs   store.FS
	root string

	mu    sync.Mutex
	state map[int]*fjShard
}

type fjShard struct {
	ready   bool
	viewSeq map[int]int // peer → next vw- ordinal
}

var fjMagic = [3]byte{'S', 'J', '2'}

const (
	fjKindCheckpoint = 'C'
	fjKindGhosts     = 'G'
	fjKindViews      = 'V'
)

// NewFileJournal returns a journal rooted at dir on fsys (nil fsys
// means the real filesystem). The directory need not exist.
func NewFileJournal(fsys store.FS, dir string) *FileJournal {
	if fsys == nil {
		fsys = store.OSFS{}
	}
	return &FileJournal{fs: fsys, root: dir, state: map[int]*fjShard{}}
}

func (j *FileJournal) dir(shard int) string {
	return filepath.Join(j.root, fmt.Sprintf("s%d", shard))
}

// ensure creates the shard directory and primes the per-peer view
// ordinals from the files already present, so a journal handle opened
// by a restarted process never reuses (and silently overwrites) a
// committed ordinal. Callers hold j.mu.
func (j *FileJournal) ensure(shard int) (*fjShard, error) {
	st := j.state[shard]
	if st != nil && st.ready {
		return st, nil
	}
	if st == nil {
		st = &fjShard{viewSeq: map[int]int{}}
		j.state[shard] = st
	}
	dir := j.dir(shard)
	if err := j.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("shard: create journal dir: %w", err)
	}
	names, err := j.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("shard: scan journal dir: %w", err)
	}
	for _, name := range names {
		if peer, ord, ok := parseTwo(name, "vw-"); ok {
			if ord >= st.viewSeq[peer] {
				st.viewSeq[peer] = ord + 1
			}
		}
	}
	st.ready = true
	return st, nil
}

// parseTwo parses "<prefix><a>-<b>.rec" names.
func parseTwo(name, prefix string) (a, b int, ok bool) {
	rest, found := strings.CutPrefix(name, prefix)
	if !found {
		return 0, 0, false
	}
	rest, found = strings.CutSuffix(rest, ".rec")
	if !found {
		return 0, 0, false
	}
	as, bs, found := strings.Cut(rest, "-")
	if !found {
		return 0, 0, false
	}
	av, err1 := strconv.Atoi(as)
	bv, err2 := strconv.Atoi(bs)
	if err1 != nil || err2 != nil || av < 0 || bv < 0 {
		return 0, 0, false
	}
	return av, bv, true
}

// parseOne parses "<prefix><a>.rec" names.
func parseOne(name, prefix string) (a int, ok bool) {
	rest, found := strings.CutPrefix(name, prefix)
	if !found {
		return 0, false
	}
	rest, found = strings.CutSuffix(rest, ".rec")
	if !found {
		return 0, false
	}
	v, err := strconv.Atoi(rest)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// seal appends the CRC trailer to a record body started by fjHeader.
func seal(buf []byte) []byte {
	crc := crc32.Checksum(buf, fjCRC)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

var fjCRC = crc32.MakeTable(crc32.Castagnoli)

func fjHeader(kind byte) []byte {
	return append(append(make([]byte, 0, 64), fjMagic[:]...), kind)
}

// open checks magic, kind and CRC and returns the varint content.
func fjOpen(data []byte, kind byte, path string) (*wireReader, error) {
	if len(data) < len(fjMagic)+1+4 {
		return nil, fmt.Errorf("%w: %s: %d-byte record", ErrJournalCorrupt, path, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc := crc32.Checksum(body, fjCRC); crc != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrJournalCorrupt, path)
	}
	if [3]byte(body[:3]) != fjMagic || body[3] != kind {
		return nil, fmt.Errorf("%w: %s: bad magic or kind", ErrJournalCorrupt, path)
	}
	return &wireReader{data: body[4:]}, nil
}

// commit stages data under a tmp- sibling and renames it into place.
// WriteFile durably syncs before returning (the FS contract), so the
// rename never publishes an unsynced file.
func (j *FileJournal) commit(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, "tmp-"+name)
	if err := j.fs.WriteFile(tmp, data); err != nil {
		return err
	}
	return j.fs.Rename(tmp, filepath.Join(dir, name))
}

func (j *FileJournal) Checkpoint(shard int, rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.ensure(shard); err != nil {
		return err
	}
	buf := fjHeader(fjKindCheckpoint)
	buf = binary.AppendUvarint(buf, uint64(rec.Round))
	buf = binary.AppendUvarint(buf, uint64(rec.Remaining))
	buf = binary.AppendUvarint(buf, uint64(len(rec.ViewIDs)))
	for _, id := range rec.ViewIDs {
		buf = binary.AppendUvarint(buf, id)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Decided)))
	for _, d := range rec.Decided {
		buf = binary.AppendUvarint(buf, uint64(d.Node))
		buf = binary.AppendUvarint(buf, uint64(d.Round))
		buf = binary.AppendUvarint(buf, uint64(len(d.Output)))
		for _, o := range d.Output {
			buf = binary.AppendVarint(buf, int64(o))
		}
	}
	return j.commit(j.dir(shard), fmt.Sprintf("ck-%d.rec", rec.Round), seal(buf))
}

func decodeCheckpoint(r *wireReader) (Record, error) {
	var rec Record
	rec.Round = r.num("round")
	rec.Remaining = r.num("remaining")
	n := r.count("view id count")
	if r.err == nil && n > 0 {
		rec.ViewIDs = make([]uint64, n)
		for i := range rec.ViewIDs {
			rec.ViewIDs[i] = r.uvarint("view id")
		}
	}
	n = r.count("decision count")
	for i := 0; i < n && r.err == nil; i++ {
		d := Decision{Node: r.num("node"), Round: r.num("round")}
		oc := r.count("output count")
		d.Output = []int{} // non-nil even when empty, like the wire decoder
		for k := 0; k < oc && r.err == nil; k++ {
			d.Output = append(d.Output, r.varint("output"))
		}
		rec.Decided = append(rec.Decided, d)
	}
	if r.err == nil && len(r.data) != 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
	return rec, r.err
}

func (j *FileJournal) Ghosts(shard int, gr GhostRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.ensure(shard); err != nil {
		return err
	}
	buf := fjHeader(fjKindGhosts)
	buf = binary.AppendUvarint(buf, uint64(gr.Round))
	buf = binary.AppendUvarint(buf, uint64(gr.Peer))
	buf = binary.AppendUvarint(buf, uint64(len(gr.IDs)))
	for _, id := range gr.IDs {
		buf = binary.AppendUvarint(buf, id)
	}
	return j.commit(j.dir(shard), fmt.Sprintf("gh-%d-%d.rec", gr.Round, gr.Peer), seal(buf))
}

func decodeGhosts(r *wireReader) (GhostRecord, error) {
	var gr GhostRecord
	gr.Round = r.num("round")
	gr.Peer = r.num("peer")
	n := r.count("id count")
	if r.err == nil && n > 0 {
		gr.IDs = make([]uint64, n)
		for i := range gr.IDs {
			gr.IDs[i] = r.uvarint("ghost id")
		}
	}
	if r.err == nil && len(r.data) != 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
	return gr, r.err
}

func (j *FileJournal) Views(shard, peer int, views []WireView) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	st, err := j.ensure(shard)
	if err != nil {
		return err
	}
	buf := fjHeader(fjKindViews)
	buf = binary.AppendUvarint(buf, uint64(peer))
	buf = binary.AppendUvarint(buf, uint64(len(views)))
	for _, v := range views {
		buf = binary.AppendUvarint(buf, v.ID)
		buf = binary.AppendUvarint(buf, uint64(v.Depth))
		buf = binary.AppendUvarint(buf, uint64(v.Deg))
		buf = binary.AppendUvarint(buf, uint64(len(v.Edges)))
		for _, e := range v.Edges {
			buf = binary.AppendUvarint(buf, uint64(e.RemotePort))
			buf = binary.AppendUvarint(buf, e.Child)
		}
	}
	ord := st.viewSeq[peer]
	if err := j.commit(j.dir(shard), fmt.Sprintf("vw-%d-%d.rec", peer, ord), seal(buf)); err != nil {
		return err
	}
	st.viewSeq[peer] = ord + 1
	return nil
}

func decodeViews(r *wireReader) (peer int, views []WireView, err error) {
	peer = r.num("peer")
	n := r.count("view count")
	for i := 0; i < n && r.err == nil; i++ {
		var v WireView
		v.ID = r.uvarint("view id")
		v.Depth = r.num("depth")
		v.Deg = r.num("degree")
		ec := r.count("edge count")
		for k := 0; k < ec && r.err == nil; k++ {
			v.Edges = append(v.Edges, WireEdge{RemotePort: r.num("port"), Child: r.uvarint("child")})
		}
		if r.err == nil {
			if cerr := checkWireView(v); cerr != nil {
				return 0, nil, cerr
			}
		}
		views = append(views, v)
	}
	if r.err == nil && len(r.data) != 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
	return peer, views, r.err
}

func (j *FileJournal) Restore(shard int) (Restored, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.ensure(shard); err != nil {
		return Restored{}, err
	}
	dir := j.dir(shard)
	names, err := j.fs.ReadDir(dir)
	if err != nil {
		return Restored{}, fmt.Errorf("shard: scan journal dir: %w", err)
	}
	sort.Strings(names)
	var out Restored
	type vwFile struct {
		peer, ord int
		name      string
	}
	var vws []vwFile
	for _, name := range names {
		path := filepath.Join(dir, name)
		switch {
		case strings.HasPrefix(name, "tmp-"):
			// Staging left behind by a crash mid-commit: never read,
			// best-effort removed.
			j.fs.Remove(path) //nolint:errcheck // advisory cleanup
		case strings.HasPrefix(name, "ck-"):
			round, ok := parseOne(name, "ck-")
			if !ok {
				return Restored{}, fmt.Errorf("%w: unparsable name %s", ErrJournalCorrupt, path)
			}
			data, err := j.fs.ReadFile(path)
			if err != nil {
				return Restored{}, fmt.Errorf("shard: read checkpoint: %w", err)
			}
			r, err := fjOpen(data, fjKindCheckpoint, path)
			if err != nil {
				return Restored{}, err
			}
			rec, err := decodeCheckpoint(r)
			if err != nil {
				return Restored{}, fmt.Errorf("%w: %s: %w", ErrJournalCorrupt, path, err)
			}
			if rec.Round != round {
				return Restored{}, fmt.Errorf("%w: %s: contains round %d", ErrJournalCorrupt, path, rec.Round)
			}
			out.Records = append(out.Records, rec)
		case strings.HasPrefix(name, "gh-"):
			if _, _, ok := parseTwo(name, "gh-"); !ok {
				return Restored{}, fmt.Errorf("%w: unparsable name %s", ErrJournalCorrupt, path)
			}
			data, err := j.fs.ReadFile(path)
			if err != nil {
				return Restored{}, fmt.Errorf("shard: read ghosts: %w", err)
			}
			r, err := fjOpen(data, fjKindGhosts, path)
			if err != nil {
				return Restored{}, err
			}
			gr, err := decodeGhosts(r)
			if err != nil {
				return Restored{}, fmt.Errorf("%w: %s: %w", ErrJournalCorrupt, path, err)
			}
			out.Ghosts = append(out.Ghosts, gr)
		case strings.HasPrefix(name, "vw-"):
			peer, ord, ok := parseTwo(name, "vw-")
			if !ok {
				return Restored{}, fmt.Errorf("%w: unparsable name %s", ErrJournalCorrupt, path)
			}
			vws = append(vws, vwFile{peer: peer, ord: ord, name: name})
		}
	}
	sort.Slice(out.Records, func(a, b int) bool { return out.Records[a].Round < out.Records[b].Round })
	// View batches replay per peer in commit order, so the store sees
	// bodies in the order the crashed incarnation journaled them.
	sort.Slice(vws, func(a, b int) bool {
		if vws[a].peer != vws[b].peer {
			return vws[a].peer < vws[b].peer
		}
		return vws[a].ord < vws[b].ord
	})
	for _, f := range vws {
		path := filepath.Join(dir, f.name)
		data, err := j.fs.ReadFile(path)
		if err != nil {
			return Restored{}, fmt.Errorf("shard: read views: %w", err)
		}
		r, err := fjOpen(data, fjKindViews, path)
		if err != nil {
			return Restored{}, err
		}
		peer, views, err := decodeViews(r)
		if err != nil {
			return Restored{}, fmt.Errorf("%w: %s: %w", ErrJournalCorrupt, path, err)
		}
		if peer != f.peer {
			return Restored{}, fmt.Errorf("%w: %s: contains peer %d", ErrJournalCorrupt, path, peer)
		}
		if out.Views == nil {
			out.Views = map[int][]WireView{}
		}
		out.Views[peer] = append(out.Views[peer], views...)
	}
	return out, nil
}
