package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"determinacy/internal/guard/faultinject"
)

// Fetch consults the owning peer for the raw framed fact-cache record of
// keyID (a factcache key id). routeKey is the bare source hash — the same
// key /v1/analyze forwarding shards on — so the lookup lands on the node
// that analyzed the program and therefore holds its facts (an empty
// routeKey falls back to keyID). Fetch structurally implements
// factcache.Remote, so a Router plugs straight into Cache.WithRemote.
//
// The read is idempotent, so it is hedged: if the first attempt has not
// answered within HedgeDelay, a second identical request races it and the
// first response wins (cluster_hedges_total counts the extra requests).
// Returned bytes are NOT validated here — factcache unframes and
// CRC-checks the record on import, so a peer serving bit-flipped or
// version-skewed records is discarded there, counted by reason, and the
// program is analyzed locally.
func (r *Router) Fetch(keyID, routeKey string) (data []byte, ok bool) {
	if routeKey == "" {
		routeKey = keyID
	}
	owner := r.ring.owner(routeKey)
	if owner == r.self {
		return nil, false
	}
	p, pok := r.peers[owner]
	if !pok {
		return nil, false
	}
	// Collapse concurrent local misses for the same key into one peer
	// round trip (with owner routing this is the cluster-wide singleflight
	// for the warm path: the owner compiles once, everyone fetches once).
	return r.sf.Do(keyID, func() (data []byte, ok bool) {
		if !p.br.Allow() {
			p.publishState()
			r.countCacheGet("breaker-open")
			return nil, false
		}
		p.publishState()
		defer func() {
			if v := recover(); v != nil {
				p.failure(fmt.Errorf("cacheget panic: %v", v))
				r.countCacheGet("panic")
				data, ok = nil, false
			}
		}()
		if faultinject.Armed() {
			faultinject.Hit(faultinject.SiteClusterCacheGet)
		}
		p.fetches.Add(1)
		data, status, err := r.hedgedGet(p, CachePath+"?key="+url.QueryEscape(keyID))
		switch {
		case err != nil:
			p.failure(err)
			r.countCacheGet("error")
			return nil, false
		case status == http.StatusOK:
			p.success()
			p.cacheOK.Add(1)
			r.countCacheGet("hit")
			return data, true
		case status == http.StatusNotFound:
			// A clean miss: the peer is healthy, it just has no facts yet.
			p.success()
			r.countCacheGet("miss")
			return nil, false
		default:
			p.failure(fmt.Errorf("cacheget: HTTP %d", status))
			r.countCacheGet("error")
			return nil, false
		}
	})
}

type hedgeResult struct {
	data   []byte
	status int
	err    error
}

// hedgedGet races up to two identical GETs against the peer, separated by
// HedgeDelay, under one CacheTimeout budget. First completed attempt wins
// (success or failure — the loser is canceled either way; with per-request
// fault injection on the wire, a hedge's clean failure racing a slow
// winner is fine: the caller treats any error as a local miss).
func (r *Router) hedgedGet(p *peer, path string) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.CacheTimeout)
	defer cancel()

	results := make(chan hedgeResult, 2)
	attempt := func() {
		data, status, err := r.getOnce(ctx, p, path)
		results <- hedgeResult{data, status, err}
	}
	go attempt()

	launched := 1
	if r.cfg.HedgeDelay >= 0 {
		select {
		case res := <-results:
			return res.data, res.status, res.err
		case <-time.After(r.cfg.HedgeDelay):
			if r.hedges != nil {
				r.hedges.Inc()
			}
			go attempt()
			launched = 2
		}
	}
	// Prefer the first success; if every launched attempt fails, report
	// the first failure.
	var firstErr *hedgeResult
	for i := 0; i < launched; i++ {
		res := <-results
		if res.err == nil {
			return res.data, res.status, nil
		}
		if firstErr == nil {
			c := res
			firstErr = &c
		}
	}
	return firstErr.data, firstErr.status, firstErr.err
}

func (r *Router) getOnce(ctx context.Context, p *peer, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+path, nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set(ForwardedHeader, r.self)
	resp, err := r.do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, r.cfg.MaxRelayBytes+1))
	if err != nil {
		return nil, 0, err
	}
	if int64(len(buf)) > r.cfg.MaxRelayBytes {
		return nil, 0, fmt.Errorf("cacheget: response exceeds %d bytes", r.cfg.MaxRelayBytes)
	}
	return buf, resp.StatusCode, nil
}
