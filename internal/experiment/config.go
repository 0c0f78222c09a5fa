package experiment

import (
	"encoding/json"
	"fmt"
)

// Envs lists the supported deployments in presentation order.
func Envs() []Env { return []Env{Virtualized, Physical} }

// Mixes lists the five request compositions in browse-share order.
func Mixes() []MixKind {
	return []MixKind{MixBrowsing, Mix70Browse, Mix50Browse, Mix30Browse, MixBidding}
}

// ParseEnv converts a user-supplied string into an Env.
func ParseEnv(s string) (Env, error) {
	for _, e := range Envs() {
		if string(e) == s {
			return e, nil
		}
	}
	return "", fmt.Errorf("experiment: unknown environment %q (want virtualized or physical)", s)
}

// ParseMix converts a user-supplied string into a MixKind.
func ParseMix(s string) (MixKind, error) {
	for _, m := range Mixes() {
		if string(m) == s {
			return m, nil
		}
	}
	return "", fmt.Errorf("experiment: unknown mix %q (want browsing, bidding, 30/70, 50/50 or 70/30)", s)
}

// Validate reports whether the configuration describes a runnable
// experiment. Run calls it before constructing any simulation state, so
// a sweep over serialized configs fails fast on the bad point instead of
// panicking mid-grid.
func (c Config) Validate() error {
	if _, err := ParseEnv(string(c.Environment)); err != nil {
		return err
	}
	if _, err := ParseMix(string(c.Mix)); err != nil {
		return err
	}
	if c.Duration <= 0 {
		return fmt.Errorf("experiment: need positive duration")
	}
	if c.Load != nil {
		// Open-loop runs take their population from the arrival process,
		// so Clients is ignored rather than validated.
		if err := c.Load.Validate(); err != nil {
			return err
		}
	} else if c.Clients <= 0 {
		return fmt.Errorf("experiment: closed-loop runs need positive clients")
	}
	if c.Pairs > 5 {
		return fmt.Errorf("experiment: %d pairs exceed the testbed's ten-VM limit", c.Pairs)
	}
	if c.Pairs > 1 && c.Environment != Virtualized {
		return fmt.Errorf("experiment: consolidation requires the virtualized deployment")
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Cache != nil {
		if err := c.Cache.Validate(); err != nil {
			return err
		}
	}
	if c.Queue != nil {
		if err := c.Queue.Validate(); err != nil {
			return err
		}
	}
	if err := c.Resilience.Validate(); err != nil {
		return err
	}
	// Features the physical testbed (two fixed servers) cannot host, and
	// those a consolidated run cannot share across its pairs.
	for _, f := range []struct {
		name        string
		on, pairsOK bool
	}{
		{"a cluster topology", c.Topology != nil && !c.Topology.IsDegenerate(), false},
		{"fault injection", !c.Faults.Empty(), false},
		{"the cache tier", c.Cache != nil, false},
		{"the queue tier", c.Queue != nil, false},
		{"the brownout controller", c.Resilience != nil && c.Resilience.Brownout != nil, true},
		{"a hypervisor cost model (XenParams)", c.XenParams != nil, true},
	} {
		if !f.on {
			continue
		}
		if c.Environment != Virtualized {
			return fmt.Errorf("experiment: %s requires the virtualized deployment", f.name)
		}
		if c.Pairs > 1 && !f.pairsOK {
			return fmt.Errorf("experiment: %s is incompatible with consolidation pairs", f.name)
		}
	}
	return nil
}

// MarshalJSON renders the config as a self-contained JSON value, so a
// sweep point can be stored, diffed, and replayed.
func (c Config) MarshalJSON() ([]byte, error) {
	type plain Config // avoid recursing into MarshalJSON
	return json.Marshal(plain(c))
}

// ParseConfig decodes a JSON value produced by MarshalJSON and validates
// it.
func ParseConfig(data []byte) (Config, error) {
	type plain Config
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return Config{}, fmt.Errorf("experiment: parsing config: %w", err)
	}
	cfg := Config(p)
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
