//! The device database.
//!
//! Each [`DeviceModel`] captures the architectural facts the paper's
//! compiler consults — the "hardware model of the target GPU, describing
//! a) the SIMD width, b) the maximal thread configuration …, c) the
//! maximal threads that can be mapped to a SIMD unit, and d) the maximal
//! available registers and shared memory as well as their allocation
//! strategy" — plus the throughput parameters the analytical timing model
//! needs (clock, SMs, bandwidth, latency, SFU ratio, VLIW width).
//!
//! All numbers are public-specification values for the real cards; they
//! are *frozen* here and never tuned per experiment.

/// GPU vendor.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// NVIDIA (CUDA and OpenCL backends).
    Nvidia,
    /// AMD (OpenCL backend only, as in the paper).
    Amd,
}

/// Microarchitecture family, which decides coalescing rules, default
/// caching and register allocation granularity.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// NVIDIA Tesla G80/G92 (compute capability 1.0/1.1).
    G80,
    /// NVIDIA GT200 (compute capability 1.2/1.3) — Quadro FX 5800.
    GT200,
    /// NVIDIA Fermi (compute capability 2.x) — Tesla C2050.
    Fermi,
    /// AMD VLIW5 (Evergreen) — Radeon HD 5870.
    Vliw5,
    /// AMD VLIW4 (Northern Islands) — Radeon HD 6970.
    Vliw4,
}

impl Architecture {
    /// Scalar lanes ganged per VLIW instruction slot (1 on NVIDIA).
    pub fn vliw_width(self) -> u32 {
        match self {
            Architecture::Vliw5 => 5,
            Architecture::Vliw4 => 4,
            _ => 1,
        }
    }

    /// Whether ordinary global loads go through a hardware cache by
    /// default (true from Fermi on; the paper: "by default (on newer Fermi
    /// GPUs from NVIDIA)").
    pub fn default_cached_loads(self) -> bool {
        matches!(self, Architecture::Fermi)
    }
}

/// Code-generation backend.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// NVIDIA CUDA.
    Cuda,
    /// OpenCL (NVIDIA or AMD).
    OpenCl,
}

impl Backend {
    /// Display name used in table headers.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Cuda => "CUDA",
            Backend::OpenCl => "OpenCL",
        }
    }
}

/// An abstract model of one GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceModel {
    /// Marketing name ("Tesla C2050").
    pub name: String,
    /// Vendor.
    pub vendor: Vendor,
    /// Microarchitecture.
    pub arch: Architecture,
    /// CUDA compute capability, when applicable ("2.0").
    pub compute_capability: Option<String>,

    // ---- Execution model ----
    /// SIMD width: warp size (32, NVIDIA) or wavefront size (64, AMD).
    pub simd_width: u32,
    /// Number of SIMD units (SMs / compute units).
    pub num_sms: u32,
    /// Scalar ALU lanes per SIMD unit (VLIW lanes count individually).
    pub cores_per_sm: u32,
    /// Shader clock in GHz.
    pub clock_ghz: f64,
    /// Maximum threads in one block (the "maximal thread configuration").
    pub max_threads_per_block: u32,
    /// Maximum resident threads on one SIMD unit (512/768/1024 on NVIDIA
    /// depending on generation, 256·waves on AMD).
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks on one SIMD unit.
    pub max_blocks_per_sm: u32,

    // ---- Register file / scratchpad, with allocation strategy ----
    /// 32-bit registers per SIMD unit.
    pub registers_per_sm: u32,
    /// Register allocation granularity in registers (per warp on Fermi,
    /// per block rounded to this on GT200).
    pub register_granularity: u32,
    /// Maximum registers one thread may use.
    pub max_registers_per_thread: u32,
    /// Scratchpad bytes per SIMD unit (shared memory / LDS).
    pub shared_mem_per_sm: u32,
    /// Scratchpad allocation granularity in bytes.
    pub shared_granularity: u32,
    /// Number of scratchpad banks (conflict modelling).
    pub shared_banks: u32,
    /// Constant-memory bytes available to one kernel (64 KiB on every
    /// CUDA generation; AMD exposes the same budget per kernel through
    /// OpenCL's `__constant` limit). Filter masks placed in constant
    /// memory are checked against this by the kernel verifier.
    pub const_mem_bytes: u32,

    // ---- Memory system (timing model inputs) ----
    /// Peak global-memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Global-memory latency in cycles.
    pub mem_latency_cycles: f64,
    /// Memory transaction segment size in bytes (coalescing unit).
    pub mem_segment_bytes: u32,
    /// Texture cache per SIMD unit in KiB.
    pub tex_cache_kib: u32,
    /// Cycles per special-function op relative to one fused ALU op.
    pub sfu_cost: f64,
    /// Cycles per (float) division relative to one fused ALU op.
    pub div_cost: f64,
    /// Issue cost of one texture/image fetch relative to an ALU op
    /// (fetch-clause switching makes this expensive on VLIW AMD parts).
    pub tex_issue_cost: f64,
    /// Fixed per-thread scheduling/setup cost in cycles (block dispatch,
    /// register initialization). Dominates tiny kernels — the reason
    /// OpenCV maps eight pixels per thread.
    pub thread_overhead: f64,
    /// Fixed kernel-launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Fraction of peak bandwidth achievable by streaming stencil loads
    /// (row-activation and partial-line effects).
    pub bw_efficiency: f64,
    /// Throughput penalty of the vendor's OpenCL stack relative to the
    /// native path (CUDA on NVIDIA; 1.0 on AMD where OpenCL is native).
    /// Calibrated once from the paper's CUDA-vs-OpenCL deltas.
    pub opencl_penalty: f64,
    /// Cycles one data-dependent branch around a memory access costs
    /// (pipeline disruption of guarded loads). Cheap on AMD's clause-based
    /// control flow, expensive on pre-Fermi NVIDIA. Calibrated once per
    /// device from a Constant-boundary manual cell.
    pub divergence_cost: f64,
}

impl hipacc_ir::key::StructuralKey for DeviceModel {
    fn write_key(&self, w: &mut hipacc_ir::key::KeyWriter) {
        let DeviceModel {
            name,
            vendor,
            arch,
            compute_capability,
            simd_width,
            num_sms,
            cores_per_sm,
            clock_ghz,
            max_threads_per_block,
            max_threads_per_sm,
            max_blocks_per_sm,
            registers_per_sm,
            register_granularity,
            max_registers_per_thread,
            shared_mem_per_sm,
            shared_granularity,
            shared_banks,
            const_mem_bytes,
            mem_bandwidth_gbs,
            mem_latency_cycles,
            mem_segment_bytes,
            tex_cache_kib,
            sfu_cost,
            div_cost,
            tex_issue_cost,
            thread_overhead,
            launch_overhead_us,
            bw_efficiency,
            opencl_penalty,
            divergence_cost,
        } = self;
        w.str(name)
            .u8(*vendor as u8)
            .u8(*arch as u8)
            .put(compute_capability);
        for v in [
            simd_width,
            num_sms,
            cores_per_sm,
            max_threads_per_block,
            max_threads_per_sm,
            max_blocks_per_sm,
            registers_per_sm,
            register_granularity,
            max_registers_per_thread,
            shared_mem_per_sm,
            shared_granularity,
            shared_banks,
            const_mem_bytes,
            mem_segment_bytes,
            tex_cache_kib,
        ] {
            w.u32(*v);
        }
        for v in [
            clock_ghz,
            mem_bandwidth_gbs,
            mem_latency_cycles,
            sfu_cost,
            div_cost,
            tex_issue_cost,
            thread_overhead,
            launch_overhead_us,
            bw_efficiency,
            opencl_penalty,
            divergence_cost,
        ] {
            w.f64(*v);
        }
    }
}

impl DeviceModel {
    /// Maximum resident warps/wavefronts per SIMD unit.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.simd_width
    }

    /// Peak scalar throughput in Gops/s.
    pub fn peak_gops(&self) -> f64 {
        self.num_sms as f64 * self.cores_per_sm as f64 * self.clock_ghz
    }

    /// Effective scalar throughput for purely scalar (non-vectorized)
    /// code: VLIW machines only fill one lane per slot, which is exactly
    /// the paper's explanation for the AMD results ("the current
    /// implementations … are scalar and do not utilize the VLIW4 or VLIW5
    /// hardware architecture").
    pub fn scalar_gops(&self) -> f64 {
        self.peak_gops() / self.arch.vliw_width() as f64
    }
}

/// Tesla C2050: Fermi GF100, compute capability 2.0.
pub fn tesla_c2050() -> DeviceModel {
    DeviceModel {
        name: "Tesla C2050".into(),
        vendor: Vendor::Nvidia,
        arch: Architecture::Fermi,
        compute_capability: Some("2.0".into()),
        simd_width: 32,
        num_sms: 14,
        cores_per_sm: 32,
        clock_ghz: 1.15,
        max_threads_per_block: 1024,
        max_threads_per_sm: 1536,
        max_blocks_per_sm: 8,
        registers_per_sm: 32768,
        register_granularity: 64,
        max_registers_per_thread: 63,
        shared_mem_per_sm: 49152,
        shared_granularity: 128,
        shared_banks: 32,
        const_mem_bytes: 65536,
        mem_bandwidth_gbs: 144.0,
        mem_latency_cycles: 600.0,
        mem_segment_bytes: 128,
        tex_cache_kib: 12,
        sfu_cost: 14.0,
        div_cost: 8.0,
        tex_issue_cost: 2.0,
        thread_overhead: 100.0,
        launch_overhead_us: 7.0,
        bw_efficiency: 0.30,
        opencl_penalty: 1.2,
        divergence_cost: 22.0,
    }
}

/// Quadro FX 5800: GT200, compute capability 1.3.
pub fn quadro_fx_5800() -> DeviceModel {
    DeviceModel {
        name: "Quadro FX 5800".into(),
        vendor: Vendor::Nvidia,
        arch: Architecture::GT200,
        compute_capability: Some("1.3".into()),
        simd_width: 32,
        num_sms: 30,
        cores_per_sm: 8,
        clock_ghz: 1.30,
        max_threads_per_block: 512,
        max_threads_per_sm: 1024,
        max_blocks_per_sm: 8,
        registers_per_sm: 16384,
        register_granularity: 512, // block-level rounding on GT200
        max_registers_per_thread: 124,
        shared_mem_per_sm: 16384,
        shared_granularity: 512,
        shared_banks: 16,
        const_mem_bytes: 65536,
        mem_bandwidth_gbs: 102.0,
        mem_latency_cycles: 500.0,
        mem_segment_bytes: 64,
        tex_cache_kib: 8,
        sfu_cost: 7.0,
        div_cost: 10.0,
        tex_issue_cost: 2.0,
        thread_overhead: 100.0,
        launch_overhead_us: 10.0,
        bw_efficiency: 0.75,
        opencl_penalty: 1.55,
        divergence_cost: 45.0,
    }
}

/// Radeon HD 5870: Cypress, VLIW5 (Evergreen).
pub fn radeon_hd_5870() -> DeviceModel {
    DeviceModel {
        name: "Radeon HD 5870".into(),
        vendor: Vendor::Amd,
        arch: Architecture::Vliw5,
        compute_capability: None,
        simd_width: 64,
        num_sms: 20,
        cores_per_sm: 80, // 16 stream cores x 5 VLIW lanes
        clock_ghz: 0.85,
        max_threads_per_block: 256,
        max_threads_per_sm: 1280, // ~20 wavefronts x 64 (resource dependent)
        max_blocks_per_sm: 8,
        registers_per_sm: 16384,
        register_granularity: 64,
        max_registers_per_thread: 124,
        shared_mem_per_sm: 32768,
        shared_granularity: 256,
        shared_banks: 32,
        const_mem_bytes: 65536,
        mem_bandwidth_gbs: 153.6,
        mem_latency_cycles: 500.0,
        mem_segment_bytes: 64,
        tex_cache_kib: 8,
        sfu_cost: 1.0,
        div_cost: 10.0,
        tex_issue_cost: 4.0,
        thread_overhead: 100.0,
        launch_overhead_us: 12.0,
        bw_efficiency: 0.35,
        opencl_penalty: 1.0,
        divergence_cost: 2.0,
    }
}

/// Radeon HD 6970: Cayman, VLIW4 (Northern Islands).
pub fn radeon_hd_6970() -> DeviceModel {
    DeviceModel {
        name: "Radeon HD 6970".into(),
        vendor: Vendor::Amd,
        arch: Architecture::Vliw4,
        compute_capability: None,
        simd_width: 64,
        num_sms: 24,
        cores_per_sm: 64, // 16 stream cores x 4 VLIW lanes
        clock_ghz: 0.88,
        max_threads_per_block: 256,
        max_threads_per_sm: 1280,
        max_blocks_per_sm: 8,
        registers_per_sm: 16384,
        register_granularity: 64,
        max_registers_per_thread: 124,
        shared_mem_per_sm: 32768,
        shared_granularity: 256,
        shared_banks: 32,
        const_mem_bytes: 65536,
        mem_bandwidth_gbs: 176.0,
        mem_latency_cycles: 500.0,
        mem_segment_bytes: 64,
        tex_cache_kib: 8,
        sfu_cost: 1.0,
        div_cost: 10.0,
        tex_issue_cost: 4.0,
        thread_overhead: 100.0,
        launch_overhead_us: 12.0,
        bw_efficiency: 0.35,
        opencl_penalty: 1.0,
        divergence_cost: 2.0,
    }
}

/// GeForce 8800 GTX: G80, compute capability 1.0 (database breadth; the
/// paper's compiler "contains information about all available CUDA-capable
/// graphics cards as specified by the compute capability").
pub fn geforce_8800_gtx() -> DeviceModel {
    DeviceModel {
        name: "GeForce 8800 GTX".into(),
        vendor: Vendor::Nvidia,
        arch: Architecture::G80,
        compute_capability: Some("1.0".into()),
        simd_width: 32,
        num_sms: 16,
        cores_per_sm: 8,
        clock_ghz: 1.35,
        max_threads_per_block: 512,
        max_threads_per_sm: 768,
        max_blocks_per_sm: 8,
        registers_per_sm: 8192,
        register_granularity: 256,
        max_registers_per_thread: 124,
        shared_mem_per_sm: 16384,
        shared_granularity: 512,
        shared_banks: 16,
        const_mem_bytes: 65536,
        mem_bandwidth_gbs: 86.4,
        mem_latency_cycles: 500.0,
        mem_segment_bytes: 64,
        tex_cache_kib: 8,
        sfu_cost: 6.0,
        div_cost: 10.0,
        tex_issue_cost: 2.0,
        thread_overhead: 100.0,
        launch_overhead_us: 10.0,
        bw_efficiency: 0.50,
        opencl_penalty: 1.6,
        divergence_cost: 45.0,
    }
}

/// GeForce GTX 580: Fermi GF110, compute capability 2.0 (database breadth).
pub fn geforce_gtx_580() -> DeviceModel {
    DeviceModel {
        name: "GeForce GTX 580".into(),
        num_sms: 16,
        clock_ghz: 1.544,
        mem_bandwidth_gbs: 192.4,
        ..tesla_c2050()
    }
}

/// Tesla C1060: GT200, compute capability 1.3 (database breadth — the
/// compute sibling of the Quadro FX 5800 with slower memory).
pub fn tesla_c1060() -> DeviceModel {
    DeviceModel {
        name: "Tesla C1060".into(),
        mem_bandwidth_gbs: 102.0,
        clock_ghz: 1.296,
        ..quadro_fx_5800()
    }
}

/// GeForce GTX 480: Fermi GF100, compute capability 2.0 (database
/// breadth — the consumer GF100 with 15 SMs).
pub fn geforce_gtx_480() -> DeviceModel {
    DeviceModel {
        name: "GeForce GTX 480".into(),
        num_sms: 15,
        clock_ghz: 1.401,
        mem_bandwidth_gbs: 177.4,
        ..tesla_c2050()
    }
}

/// All devices in the database, evaluation cards first.
pub fn all_devices() -> Vec<DeviceModel> {
    vec![
        tesla_c2050(),
        quadro_fx_5800(),
        radeon_hd_5870(),
        radeon_hd_6970(),
        geforce_8800_gtx(),
        geforce_gtx_580(),
        geforce_gtx_480(),
        tesla_c1060(),
    ]
}

/// Look up a device by (case-insensitive) name substring.
pub fn find_device(name: &str) -> Option<DeviceModel> {
    let needle = name.to_lowercase();
    all_devices()
        .into_iter()
        .find(|d| d.name.to_lowercase().contains(&needle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_devices_present() {
        for name in [
            "Tesla C2050",
            "Quadro FX 5800",
            "Radeon HD 5870",
            "Radeon HD 6970",
        ] {
            assert!(find_device(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn lookup_is_case_insensitive_substring() {
        assert_eq!(find_device("tesla").unwrap().name, "Tesla C2050");
        assert_eq!(find_device("6970").unwrap().name, "Radeon HD 6970");
        assert!(find_device("voodoo").is_none());
    }

    #[test]
    fn amd_limits_match_paper() {
        // "on graphics cards from AMD, the maximal number of threads that
        // can be mapped to one SIMD unit is 256" (per block), "while this
        // limit is either 512, 768, or 1024 on graphics cards from NVIDIA".
        assert_eq!(radeon_hd_5870().max_threads_per_block, 256);
        assert_eq!(radeon_hd_6970().max_threads_per_block, 256);
        assert_eq!(quadro_fx_5800().max_threads_per_block, 512);
        assert_eq!(geforce_8800_gtx().max_threads_per_sm, 768);
        assert_eq!(tesla_c2050().max_threads_per_block, 1024);
    }

    #[test]
    fn vliw_width_reduces_scalar_throughput() {
        let hd5870 = radeon_hd_5870();
        assert_eq!(hd5870.arch.vliw_width(), 5);
        assert!((hd5870.scalar_gops() - hd5870.peak_gops() / 5.0).abs() < 1e-9);
        let fermi = tesla_c2050();
        assert_eq!(fermi.arch.vliw_width(), 1);
        assert_eq!(fermi.scalar_gops(), fermi.peak_gops());
    }

    #[test]
    fn fermi_has_default_cached_loads() {
        assert!(Architecture::Fermi.default_cached_loads());
        assert!(!Architecture::GT200.default_cached_loads());
        assert!(!Architecture::Vliw5.default_cached_loads());
    }

    #[test]
    fn warp_counts() {
        assert_eq!(tesla_c2050().max_warps_per_sm(), 48);
        assert_eq!(quadro_fx_5800().max_warps_per_sm(), 32);
        assert_eq!(radeon_hd_5870().max_warps_per_sm(), 20);
    }

    #[test]
    fn device_database_is_deterministic() {
        assert_eq!(tesla_c2050(), tesla_c2050());
        assert_eq!(all_devices().len(), 8);
        // Evaluation devices come first, in table order.
        let names: Vec<String> = all_devices().into_iter().take(4).map(|d| d.name).collect();
        assert_eq!(
            names,
            vec![
                "Tesla C2050",
                "Quadro FX 5800",
                "Radeon HD 5870",
                "Radeon HD 6970"
            ]
        );
    }

    #[test]
    fn peak_gops_are_plausible() {
        // Tesla C2050: 14 SMs x 32 cores x 1.15 GHz = 515 Gops (1.03 TFLOP
        // with FMA counting 2).
        assert!((tesla_c2050().peak_gops() - 515.2).abs() < 0.1);
        // HD 5870: 20 x 80 x 0.85 = 1360 Gops.
        assert!((radeon_hd_5870().peak_gops() - 1360.0).abs() < 0.1);
    }
}
