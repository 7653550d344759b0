package main

// In-process ussd nodes on loopback listeners, and the HTTP client the
// load generator drives them with.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
)

// Flush policy of every durable node: interval fsync with group commit,
// so an ack is sent only after the fsync covering its WAL record.
const (
	syncEvery       = 2 * time.Millisecond
	checkpointEvery = time.Minute
)

func flushPolicy() string {
	return fmt.Sprintf("fsync=interval every=%v group-commit=true checkpoint-interval=%v", syncEvery, checkpointEvery)
}

// storeOptions is the durable nodes' store configuration.
func storeOptions(dir string) store.Options {
	return store.Options{Dir: dir, Sync: store.SyncInterval, SyncEvery: syncEvery, GroupCommit: true}
}

// node is one in-process ussd instance serving on a loopback listener.
type node struct {
	srv   *server.Server
	agent *cluster.Agent
	hs    *http.Server
	done  chan error
	url   string
	dir   string
}

// startNode boots a single ussd node; a non-empty dir makes it durable.
func startNode(dir string) (*node, error) {
	srv := server.New(server.Config{Addr: "127.0.0.1:0"})
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		rebuilt, err := store.Rebuild(dir)
		if err != nil {
			return nil, err
		}
		st, err := store.Open(storeOptions(dir))
		if err != nil {
			return nil, err
		}
		if err := srv.AttachStore(st, rebuilt, checkpointEvery); err != nil {
			_ = st.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	n := &node{srv: srv, done: make(chan error, 1), url: "http://" + ln.Addr().String(), dir: dir}
	go func() { n.done <- srv.Serve(ln) }()
	return n, nil
}

// startCluster boots n cluster nodes, every one an owner of every sketch
// (replication factor n), answering reads at read quorum 2. Anti-entropy
// runs only on demand, so measured reads see no background state pulls.
func startCluster(n int) ([]*node, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*node, 0, n)
	for i := range lns {
		srv := server.New(server.Config{Addr: lns[i].Addr().String()})
		ag, err := cluster.New(cluster.Config{
			Self:              urls[i],
			Peers:             append([]string(nil), urls...),
			ReplicationFactor: n,
			ReadQuorum:        2,
		}, srv)
		if err != nil {
			_ = srv.Shutdown(context.Background())
			for _, l := range lns[i:] {
				l.Close()
			}
			stopAll(nodes)
			return nil, err
		}
		ag.Start()
		nd := &node{srv: srv, agent: ag, hs: &http.Server{Handler: ag.Handler()}, done: make(chan error, 1), url: urls[i]}
		ln := lns[i]
		go func() {
			err := nd.hs.Serve(ln)
			if err == http.ErrServerClosed {
				err = nil
			}
			nd.done <- err
		}()
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

// stop shuts the node down and waits for its serve loop to return.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if n.hs != nil {
		err = n.hs.Shutdown(ctx)
		if aerr := n.agent.Shutdown(ctx); err == nil {
			err = aerr
		}
	}
	if serr := n.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-n.done; err == nil {
		err = serr
	}
	if n.dir != "" {
		if rerr := os.RemoveAll(n.dir); err == nil {
			err = rerr
		}
	}
	return err
}

func stopAll(nodes []*node) error {
	var first error
	for _, n := range nodes {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// client issues the load generator's requests over loopback HTTP.
type client struct {
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64, IdleConnTimeout: time.Minute}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx response.
func (c *client) do(method, url, ctype string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func (c *client) get(url string) ([]byte, error) { return c.do(http.MethodGet, url, "", nil) }

func (c *client) post(url, ctype string, body []byte) ([]byte, error) {
	return c.do(http.MethodPost, url, ctype, body)
}

// getJSON GETs url and decodes the JSON body into v.
func (c *client) getJSON(url string, v any) error {
	data, err := c.get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// ingestAck is the body of a successful sync ingest.
type ingestAck struct {
	Rows int `json:"rows"`
}

// ingest posts one sync batch and checks the ack covers every row.
func (c *client) ingest(base, name string, b batch) error {
	data, err := c.post(base+"/v1/sketches/"+name+"/ingest?sync=1", "text/plain", b.body)
	if err != nil {
		return err
	}
	var ack ingestAck
	if err := json.Unmarshal(data, &ack); err != nil {
		return fmt.Errorf("decode ingest ack: %w", err)
	}
	if ack.Rows != len(b.items) {
		return fmt.Errorf("ingest ack covers %d rows, sent %d", ack.Rows, len(b.items))
	}
	return nil
}
