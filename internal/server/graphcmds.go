package server

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"redisgraph/internal/core"
	"redisgraph/internal/cypher"
	"redisgraph/internal/resp"
	"redisgraph/internal/value"
)

// queryConfig assembles the per-query engine configuration from the
// server's options and live GRAPH.CONFIG state.
func (s *Server) queryConfig() core.Config {
	return core.Config{Timeout: s.opts.QueryTimeout, PlanCache: s.planCache}
}

// admitQuery takes one of the THREAD_COUNT admission permits for an
// executing query command, queueing FIFO up to the live ADMISSION_TIMEOUT.
// On deadline it returns a -BUSY error reply (release == nil) so saturated
// clients fail fast and back off instead of stacking up.
func (s *Server) admitQuery() (wait time.Duration, release func(), busy resp.ErrorReply) {
	wait, err := s.gate.Acquire(s.admissionTimeout())
	if err != nil {
		return 0, nil, resp.ErrorReply(err.Error())
	}
	return wait, s.gate.Release, ""
}

// configParam is one GRAPH.CONFIG parameter: GET, GET *, SET, its validation
// error and the usage line all derive from the configParams table. get reads
// the live value. set parses and applies a new value, returning the
// constraint a rejected value violated ("must be …"); it is nil for the
// parameters fixed at start-up.
type configParam struct {
	name string
	get  func(s *Server) int64
	set  func(s *Server, v string) error
}

// intParam is an integer parameter accepting [min, max]; note says what a
// special value means.
func intParam(name string, min, max int64, note string, get func(*Server) int64, set func(*Server, int64)) configParam {
	return configParam{name, get,
		func(s *Server, v string) error {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < min || n > max {
				return fmt.Errorf("must be an integer between %d and %d%s", min, max, note)
			}
			set(s, n)
			return nil
		}}
}

// configParams lists every GRAPH.CONFIG parameter, in the order GET *
// reports them.
var configParams = []configParam{
	{"THREAD_COUNT", func(s *Server) int64 { return int64(s.opts.ThreadCount) }, nil},
	{"TIMEOUT", func(s *Server) int64 { return s.opts.QueryTimeout.Milliseconds() }, nil},
	intParam("PLAN_CACHE_SIZE", 0, math.MaxInt32, " (0 = caching off)",
		func(s *Server) int64 { return int64(s.planCache.Capacity()) },
		func(s *Server, n int64) { s.planCache.SetCapacity(int(n)) }),
	intParam("ADMISSION_TIMEOUT", 0, math.MaxInt64, " milliseconds (0 = fail fast when saturated)",
		func(s *Server) int64 { return s.admissionTimeoutMs.Load() },
		func(s *Server, n int64) { s.admissionTimeoutMs.Store(n) }),
}

// configCommand serves GRAPH.CONFIG GET <name>|* and SET <name> <value>.
func (s *Server) configCommand(args []string) (any, error) {
	verb := ""
	if len(args) > 0 {
		verb = strings.ToUpper(args[0])
	}
	if !(verb == "GET" && len(args) >= 2) && !(verb == "SET" && len(args) >= 3) {
		var all, settable []string
		for _, p := range configParams {
			all = append(all, p.name)
			if p.set != nil {
				settable = append(settable, p.name)
			}
		}
		return nil, fmt.Errorf("ERR GRAPH.CONFIG supports GET *|%s and SET %s <value>",
			strings.Join(all, "|"), strings.Join(settable, "|"))
	}
	if verb == "GET" && args[1] == "*" {
		// Redis semantics: GET * returns every parameter as a name/value pair.
		pairs := make([]any, 0, len(configParams))
		for _, p := range configParams {
			pairs = append(pairs, []any{p.name, p.get(s)})
		}
		return pairs, nil
	}
	name := strings.ToUpper(args[1])
	for _, p := range configParams {
		if p.name != name {
			continue
		}
		if verb == "GET" {
			return []any{p.name, p.get(s)}, nil
		}
		if p.set == nil {
			break // fixed at start-up: not a settable parameter
		}
		if err := p.set(s, args[2]); err != nil {
			return nil, fmt.Errorf("ERR %s %v", p.name, err)
		}
		return resp.SimpleString("OK"), nil
	}
	return nil, fmt.Errorf("ERR unknown configuration parameter %q", args[1])
}

// graphCommand executes one GRAPH.* module command on the connection
// goroutine. Only the commands that run a query take an admission permit;
// EXPLAIN, DELETE, LIST and CONFIG run without one, like keyspace commands.
func (s *Server) graphCommand(cmd string, args []string) (any, error) {
	switch cmd {
	case "GRAPH.QUERY", "GRAPH.RO_QUERY":
		if len(args) < 2 {
			return nil, fmt.Errorf("ERR wrong number of arguments for '%s' command", strings.ToLower(cmd))
		}
		g := s.Graph(args[0])
		params, query, perr := cypher.ParseParams(args[1])
		if perr != nil {
			return nil, fmt.Errorf("ERR %v", perr)
		}
		_, release, busy := s.admitQuery()
		if release == nil {
			return busy, nil
		}
		defer release()
		cfg := s.queryConfig()
		var rs *core.ResultSet
		var err error
		if cmd == "GRAPH.RO_QUERY" {
			rs, err = core.ROQuery(g, query, params, cfg)
		} else {
			rs, err = core.Query(g, query, params, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("ERR %v", err)
		}
		return encodeResultSet(rs), nil

	case "GRAPH.EXPLAIN":
		if len(args) < 2 {
			return nil, fmt.Errorf("ERR wrong number of arguments for 'graph.explain' command")
		}
		g := s.Graph(args[0])
		_, query, perr := cypher.ParseParams(args[1])
		if perr != nil {
			return nil, fmt.Errorf("ERR %v", perr)
		}
		lines, err := core.Explain(g, query, s.queryConfig())
		if err != nil {
			return nil, fmt.Errorf("ERR %v", err)
		}
		return toAnySlice(lines), nil

	case "GRAPH.PROFILE":
		if len(args) < 2 {
			return nil, fmt.Errorf("ERR wrong number of arguments for 'graph.profile' command")
		}
		g := s.Graph(args[0])
		params, query, perr := cypher.ParseParams(args[1])
		if perr != nil {
			return nil, fmt.Errorf("ERR %v", perr)
		}
		wait, release, busy := s.admitQuery()
		if release == nil {
			return busy, nil
		}
		defer release()
		lines, err := core.Profile(g, query, params, s.queryConfig())
		if err != nil {
			return nil, fmt.Errorf("ERR %v", err)
		}
		gs := s.gate.Snapshot()
		admission := fmt.Sprintf("admission: wait: %.3f ms | queued: %d | admitted: %d | rejected: %d | limit: %d",
			float64(wait.Nanoseconds())/1e6, gs.QueuedNow, gs.Admitted, gs.Rejected, gs.Limit)
		return toAnySlice(append([]string{admission}, lines...)), nil

	case "GRAPH.DELETE":
		if len(args) != 1 {
			return nil, fmt.Errorf("ERR wrong number of arguments for 'graph.delete' command")
		}
		if !s.deleteGraph(args[0]) {
			return nil, fmt.Errorf("ERR graph %q does not exist", args[0])
		}
		return resp.SimpleString("OK"), nil

	case "GRAPH.LIST":
		return toAnySlice(s.graphNames()), nil

	case "GRAPH.CONFIG":
		return s.configCommand(args)
	}
	return nil, fmt.Errorf("ERR unknown command '%s'", strings.ToLower(cmd))
}

// encodeResultSet renders a ResultSet in RedisGraph's three-section reply
// shape: [columns], [rows...], [statistics...].
func encodeResultSet(rs *core.ResultSet) []any {
	header := make([]any, len(rs.Columns))
	for i, c := range rs.Columns {
		header[i] = c
	}
	rows := make([]any, len(rs.Rows))
	for i, row := range rs.Rows {
		cells := make([]any, len(row))
		for j, v := range row {
			cells[j] = encodeValue(v)
		}
		rows[i] = cells
	}
	return []any{header, rows, toAnySlice(rs.Stats.Lines())}
}

func encodeValue(v value.Value) any {
	switch v.Kind {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.Int()
	case value.KindBool:
		if v.Bool() {
			return int64(1)
		}
		return int64(0)
	default:
		return v.String()
	}
}

func toAnySlice(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}
