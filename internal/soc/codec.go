package soc

import (
	"encoding/json"
	"fmt"
	"io"

	"accubench/internal/silicon"
	"accubench/internal/thermal"
	"accubench/internal/units"
)

// This file (de)serializes DeviceModels so downstream users can study
// handsets beyond the paper's five without writing Go: define the SoC,
// body and policies in JSON, load it, and run ACCUBENCH on it.
//
// The only polymorphic part is the voltage scheme; it is encoded with a
// type tag ("static" carries per-bin millivolt rows, "rbcpr" carries the
// curve and trims).

// modelJSON is the on-disk shape of a DeviceModel.
type modelJSON struct {
	Name    string      `json:"name"`
	SoC     socJSON     `json:"soc"`
	Body    bodyJSON    `json:"body"`
	Battery batteryJSON `json:"battery"`
	Thermal thermalJSON `json:"thermal"`
	// VoltageThrottle is optional (LG G5 style).
	VoltageThrottle *voltageThrottleJSON `json:"voltage_throttle,omitempty"`
	FixedFreqMHz    float64              `json:"fixed_freq_mhz"`
	SensorNoiseC    float64              `json:"sensor_noise_c"`
}

type socJSON struct {
	Name     string       `json:"name"`
	Process  string       `json:"process"`
	Year     int          `json:"year"`
	Big      clusterJSON  `json:"big"`
	Little   *clusterJSON `json:"little,omitempty"`
	Leakage  leakageJSON  `json:"leakage"`
	UncoreW  float64      `json:"uncore_w"`
	Voltages schemeJSON   `json:"voltages"`
	Bins     int          `json:"bins"`
}

type clusterJSON struct {
	Name               string    `json:"name"`
	Cores              int       `json:"cores"`
	OPPsMHz            []float64 `json:"opps_mhz"`
	CeffNF             float64   `json:"ceff_nf"`
	CyclesPerIteration float64   `json:"cycles_per_iteration"`
}

type leakageJSON struct {
	I0A     float64 `json:"i0_a"`
	VrefV   float64 `json:"vref_v"`
	VoltExp float64 `json:"volt_exp"`
	TrefC   float64 `json:"tref_c"`
	TSlopeC float64 `json:"tslope_c"`
}

type schemeJSON struct {
	// Type is "static" or "rbcpr".
	Type string `json:"type"`
	// Static fields.
	FreqsMHz []float64   `json:"freqs_mhz,omitempty"`
	BinRowsM [][]float64 `json:"bin_rows_mv,omitempty"`
	// RBCPR fields.
	CurveMHzMV  [][2]float64 `json:"curve_mhz_mv,omitempty"`
	LeakageTrim float64      `json:"leakage_trim,omitempty"`
	TempTrim    float64      `json:"temp_trim,omitempty"`
	TempRefC    float64      `json:"temp_ref_c,omitempty"`
	MaxTrim     float64      `json:"max_trim,omitempty"`
}

type bodyJSON struct {
	DieCapacitanceJC  float64 `json:"die_capacitance_j_c"`
	CaseCapacitanceJC float64 `json:"case_capacitance_j_c"`
	DieToCaseWC       float64 `json:"die_to_case_w_c"`
	CaseToAmbientWC   float64 `json:"case_to_ambient_w_c"`
}

type batteryJSON struct {
	CapacityMAh  float64 `json:"capacity_mah"`
	NominalV     float64 `json:"nominal_v"`
	MaximumV     float64 `json:"maximum_v"`
	InternalOhms float64 `json:"internal_ohms"`
}

type thermalJSON struct {
	ThrottleAtC      float64 `json:"throttle_at_c"`
	HysteresisC      float64 `json:"hysteresis_c"`
	CoreOfflineAtC   float64 `json:"core_offline_at_c,omitempty"`
	CoreOnlineBelowC float64 `json:"core_online_below_c,omitempty"`
	MinOnlineCores   int     `json:"min_online_cores,omitempty"`
	MinCapFreqMHz    float64 `json:"min_cap_freq_mhz,omitempty"`
}

type voltageThrottleJSON struct {
	ThresholdV float64 `json:"threshold_v"`
	CapFreqMHz float64 `json:"cap_freq_mhz"`
}

// SaveModel writes the model as indented JSON.
func SaveModel(w io.Writer, m *DeviceModel) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("soc: refusing to save invalid model: %w", err)
	}
	mj := modelJSON{
		Name: m.Name,
		SoC: socJSON{
			Name:    m.SoC.Name,
			Process: m.SoC.Process,
			Year:    m.SoC.Year,
			Big:     clusterToJSON(m.SoC.Big),
			Leakage: leakageJSON{
				I0A:     float64(m.SoC.Leakage.I0),
				VrefV:   float64(m.SoC.Leakage.Vref),
				VoltExp: m.SoC.Leakage.VoltExp,
				TrefC:   float64(m.SoC.Leakage.Tref),
				TSlopeC: m.SoC.Leakage.TSlope,
			},
			UncoreW: float64(m.SoC.Uncore),
			Bins:    m.SoC.Bins,
		},
		Body: bodyJSON{
			DieCapacitanceJC:  m.Body.DieCapacitance,
			CaseCapacitanceJC: m.Body.CaseCapacitance,
			DieToCaseWC:       m.Body.DieToCase,
			CaseToAmbientWC:   m.Body.CaseToAmbient,
		},
		Battery: batteryJSON{
			CapacityMAh:  float64(m.Battery.Capacity),
			NominalV:     float64(m.Battery.Nominal),
			MaximumV:     float64(m.Battery.Maximum),
			InternalOhms: m.Battery.InternalOhms,
		},
		Thermal: thermalJSON{
			ThrottleAtC:      float64(m.Thermal.ThrottleAt),
			HysteresisC:      m.Thermal.Hysteresis,
			CoreOfflineAtC:   float64(m.Thermal.CoreOfflineAt),
			CoreOnlineBelowC: float64(m.Thermal.CoreOnlineBelow),
			MinOnlineCores:   m.Thermal.MinOnlineCores,
			MinCapFreqMHz:    float64(m.Thermal.MinCapFreq),
		},
		FixedFreqMHz: float64(m.FixedFreq),
		SensorNoiseC: m.SensorNoise,
	}
	if m.SoC.Little != nil {
		lj := clusterToJSON(*m.SoC.Little)
		mj.SoC.Little = &lj
	}
	if m.VoltageThrottle != nil {
		mj.VoltageThrottle = &voltageThrottleJSON{
			ThresholdV: float64(m.VoltageThrottle.Threshold),
			CapFreqMHz: float64(m.VoltageThrottle.CapFreq),
		}
	}
	switch v := m.SoC.Voltages.(type) {
	case StaticTable:
		mj.SoC.Voltages.Type = "static"
		for _, f := range v.Table.Frequencies() {
			mj.SoC.Voltages.FreqsMHz = append(mj.SoC.Voltages.FreqsMHz, float64(f))
		}
		for b := 0; b < v.Table.Bins(); b++ {
			row, err := v.Table.Row(silicon.Bin(b))
			if err != nil {
				return err
			}
			mv := make([]float64, len(row))
			for i, p := range row {
				mv[i] = p.Voltage.Millivolts()
			}
			mj.SoC.Voltages.BinRowsM = append(mj.SoC.Voltages.BinRowsM, mv)
		}
	case RBCPR:
		mj.SoC.Voltages.Type = "rbcpr"
		for _, p := range v.Curve {
			mj.SoC.Voltages.CurveMHzMV = append(mj.SoC.Voltages.CurveMHzMV,
				[2]float64{float64(p.Freq), p.Voltage.Millivolts()})
		}
		mj.SoC.Voltages.LeakageTrim = v.LeakageTrim
		mj.SoC.Voltages.TempTrim = v.TempTrim
		mj.SoC.Voltages.TempRefC = float64(v.TempRef)
		mj.SoC.Voltages.MaxTrim = v.MaxTrim
	default:
		return fmt.Errorf("soc: cannot serialize voltage scheme %T", m.SoC.Voltages)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(mj)
}

func clusterToJSON(c Cluster) clusterJSON {
	cj := clusterJSON{
		Name:               c.Name,
		Cores:              c.Cores,
		CeffNF:             float64(c.Ceff) * 1e9,
		CyclesPerIteration: c.CyclesPerIteration,
	}
	for _, f := range c.OPPs {
		cj.OPPsMHz = append(cj.OPPsMHz, float64(f))
	}
	return cj
}

func clusterFromJSON(cj clusterJSON) Cluster {
	c := Cluster{
		Name:  cj.Name,
		Cores: cj.Cores,
		// Divide by the same constant the save path multiplies by: scaling
		// by c then by a rounded 1/c drifts a ULP per save/load cycle,
		// whereas multiply-then-divide by one constant is idempotent.
		Ceff:               units.Farads(cj.CeffNF / 1e9),
		CyclesPerIteration: cj.CyclesPerIteration,
	}
	for _, f := range cj.OPPsMHz {
		c.OPPs = append(c.OPPs, units.MegaHertz(f))
	}
	return c
}

// LoadModel reads a JSON model and validates it fully before returning.
func LoadModel(r io.Reader) (*DeviceModel, error) {
	var mj modelJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mj); err != nil {
		return nil, fmt.Errorf("soc: malformed model JSON: %w", err)
	}
	s := &SoC{
		Name:    mj.SoC.Name,
		Process: mj.SoC.Process,
		Year:    mj.SoC.Year,
		Big:     clusterFromJSON(mj.SoC.Big),
		Leakage: silicon.LeakageModel{
			I0:      units.Amps(mj.SoC.Leakage.I0A),
			Vref:    units.Volts(mj.SoC.Leakage.VrefV),
			VoltExp: mj.SoC.Leakage.VoltExp,
			Tref:    units.Celsius(mj.SoC.Leakage.TrefC),
			TSlope:  mj.SoC.Leakage.TSlopeC,
		},
		Uncore: units.Watts(mj.SoC.UncoreW),
		Bins:   mj.SoC.Bins,
	}
	if mj.SoC.Little != nil {
		l := clusterFromJSON(*mj.SoC.Little)
		s.Little = &l
	}
	switch mj.SoC.Voltages.Type {
	case "static":
		freqs := make([]units.MegaHertz, len(mj.SoC.Voltages.FreqsMHz))
		for i, f := range mj.SoC.Voltages.FreqsMHz {
			freqs[i] = units.MegaHertz(f)
		}
		tbl, err := silicon.NewVoltageTable(freqs, mj.SoC.Voltages.BinRowsM)
		if err != nil {
			return nil, fmt.Errorf("soc: model %q: %w", mj.Name, err)
		}
		s.Voltages = StaticTable{Table: tbl}
	case "rbcpr":
		r := RBCPR{
			LeakageTrim: mj.SoC.Voltages.LeakageTrim,
			TempTrim:    mj.SoC.Voltages.TempTrim,
			TempRef:     units.Celsius(mj.SoC.Voltages.TempRefC),
			MaxTrim:     mj.SoC.Voltages.MaxTrim,
		}
		for _, p := range mj.SoC.Voltages.CurveMHzMV {
			r.Curve = append(r.Curve, silicon.VoltagePoint{
				Freq:    units.MegaHertz(p[0]),
				Voltage: units.FromMillivolts(p[1]),
			})
		}
		s.Voltages = r
	default:
		return nil, fmt.Errorf("soc: unknown voltage scheme type %q", mj.SoC.Voltages.Type)
	}
	m := &DeviceModel{
		Name: mj.Name,
		SoC:  s,
		Body: thermal.PhoneBody{
			DieCapacitance:  mj.Body.DieCapacitanceJC,
			CaseCapacitance: mj.Body.CaseCapacitanceJC,
			DieToCase:       mj.Body.DieToCaseWC,
			CaseToAmbient:   mj.Body.CaseToAmbientWC,
		},
		Battery: BatterySpec{
			Capacity:     units.MilliampHours(mj.Battery.CapacityMAh),
			Nominal:      units.Volts(mj.Battery.NominalV),
			Maximum:      units.Volts(mj.Battery.MaximumV),
			InternalOhms: mj.Battery.InternalOhms,
		},
		Thermal: ThermalPolicy{
			ThrottleAt:      units.Celsius(mj.Thermal.ThrottleAtC),
			Hysteresis:      mj.Thermal.HysteresisC,
			CoreOfflineAt:   units.Celsius(mj.Thermal.CoreOfflineAtC),
			CoreOnlineBelow: units.Celsius(mj.Thermal.CoreOnlineBelowC),
			MinOnlineCores:  mj.Thermal.MinOnlineCores,
			MinCapFreq:      units.MegaHertz(mj.Thermal.MinCapFreqMHz),
		},
		FixedFreq:   units.MegaHertz(mj.FixedFreqMHz),
		SensorNoise: mj.SensorNoiseC,
	}
	if mj.VoltageThrottle != nil {
		m.VoltageThrottle = &InputVoltageThrottle{
			Threshold: units.Volts(mj.VoltageThrottle.ThresholdV),
			CapFreq:   units.MegaHertz(mj.VoltageThrottle.CapFreqMHz),
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("soc: model %q invalid: %w", mj.Name, err)
	}
	return m, nil
}
