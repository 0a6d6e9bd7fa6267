package core

import (
	"errors"
	"testing"

	"vmp/internal/cache"
)

// validBase returns a config that passes Validate after default fill.
func validBase() Config {
	c := Config{
		Processors: 2,
		Cache:      cache.Geometry(64<<10, 256, 4),
		MemorySize: 8 << 20,
	}
	c.FillDefaults()
	return c
}

// TestConfigValidateRejections exercises every typed rejection of the
// centralized Config.Validate, checking both the error type and the
// field it names.
func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"zero processors", func(c *Config) { c.Processors = 0 }, "Processors"},
		{"negative processors", func(c *Config) { c.Processors = -3 }, "Processors"},
		{"non-power-of-two page size", func(c *Config) { c.Cache.PageSize = 192 }, "Cache.PageSize"},
		{"zero page size", func(c *Config) { c.Cache.PageSize = 0 }, "Cache.PageSize"},
		{"non-power-of-two rows", func(c *Config) { c.Cache.Rows = 33 }, "Cache.Rows"},
		{"zero ways", func(c *Config) { c.Cache.Assoc = 0 }, "Cache.Assoc"},
		{"negative ways", func(c *Config) { c.Cache.Assoc = -1 }, "Cache.Assoc"},
		{"non-positive memory", func(c *Config) { c.MemorySize = -4096 }, "MemorySize"},
		{"unaligned memory", func(c *Config) { c.MemorySize = 8<<20 + 12 }, "MemorySize"},
		{"memory beyond 32-bit addresses", func(c *Config) { c.MemorySize = 1<<32 + 4096 }, "MemorySize"},
		{"FIFO depth below 1", func(c *Config) { c.FIFODepth = -1 }, "FIFODepth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validBase()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", cfg)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q (err: %v)", ce.Field, tc.field, err)
			}
		})
	}
}

// TestConfigValidateAccepts checks the default-filled zero config and a
// typical explicit config both validate.
func TestConfigValidateAccepts(t *testing.T) {
	zero := Config{}
	zero.FillDefaults()
	if err := zero.Validate(); err != nil {
		t.Errorf("default-filled zero config rejected: %v", err)
	}
	if err := validBase().Validate(); err != nil {
		t.Errorf("explicit config rejected: %v", err)
	}
	// Physical addresses are 32 bits, so 4 GiB is the largest memory
	// (checked without building it).
	full := validBase()
	full.MemorySize = 1 << 32
	if err := full.Validate(); err != nil {
		t.Errorf("4 GiB memory rejected: %v", err)
	}
}

// TestNewMachineValidates verifies NewMachine routes through Validate
// and surfaces its typed errors.
func TestNewMachineValidates(t *testing.T) {
	_, err := NewMachine(Config{Cache: cache.Config{PageSize: 100, Rows: 64, Assoc: 4}})
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Cache.PageSize" {
		t.Fatalf("NewMachine error = %v, want ConfigError on Cache.PageSize", err)
	}
	if _, err := NewMachine(Config{}); err != nil {
		t.Fatalf("NewMachine rejected the zero config: %v", err)
	}
}
