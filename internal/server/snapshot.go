package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"

	"redisgraph/internal/persist"
	"redisgraph/internal/resp"
)

// snapshotMagic precedes the graph count in a multi-graph snapshot file
// (the role of an RDB file for this server).
const snapshotMagic = "RGSNAP01"

// SaveSnapshot writes every graph to the configured snapshot path, one save
// at a time.
func (s *Server) SaveSnapshot() error {
	if s.opts.SnapshotPath == "" {
		return fmt.Errorf("ERR no snapshot path configured")
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	tmp := s.opts.SnapshotPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.writeSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, s.opts.SnapshotPath)
}

func (s *Server) writeSnapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], uint64(len(s.graphs)))
	if _, err := w.Write(count[:]); err != nil {
		return err
	}
	for _, g := range s.graphs {
		// Serialise against in-flight write queries (writer mutex via
		// BeginWrite), then take the exclusive lock and force-fold every
		// delta matrix so the snapshot captures a fully materialised store
		// and never a state between one write query's mutation bursts.
		g.BeginWrite()
		g.BeginMutation()
		g.Sync()
		err := persist.Save(g, w)
		g.EndMutation()
		g.EndWrite()
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshot restores graphs from the snapshot path; a missing file is
// not an error (fresh server).
func (s *Server) LoadSnapshot() error {
	if s.opts.SnapshotPath == "" {
		return nil
	}
	f, err := os.Open(s.opts.SnapshotPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return err
	}
	if string(head) != snapshotMagic {
		return fmt.Errorf("server: bad snapshot magic %q", head)
	}
	var count [8]byte
	if _, err := io.ReadFull(br, count[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint64(count[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := uint64(0); i < n; i++ {
		g, err := persist.Load(br)
		if err != nil {
			return err
		}
		s.graphs[g.Name] = g
	}
	// Collect the decoder's garbage once, so the first heap goal is twice
	// the loaded graphs, not twice whatever the load's last GC cycle found
	// live: that varied from run to run and set the server's peak RSS.
	runtime.GC()
	return nil
}

// saveCommand handles the SAVE keyspace command.
func (s *Server) saveCommand() (any, error) {
	if err := s.SaveSnapshot(); err != nil {
		return nil, err
	}
	return resp.SimpleString("OK"), nil
}
