//! # hipacc-ir
//!
//! The typed kernel IR that plays the role of the Clang AST in the paper's
//! source-to-source compiler.
//!
//! The paper parses C++ kernel methods with Clang and manipulates the AST;
//! we instead let DSL kernels *construct* an equivalent AST through
//! [`builder::KernelBuilder`], and every later stage of the pipeline —
//! read/write analysis, constant propagation, loop unrolling, memory-space
//! lowering, CUDA/OpenCL emission, functional simulation — operates on this
//! IR.
//!
//! Two *levels* share one AST:
//!
//! * **DSL level** — what the programmer writes: [`Expr::InputAt`] /
//!   [`Expr::MaskAt`] / [`Stmt::Output`] plus ordinary arithmetic and
//!   control flow. No notion of threads or memory spaces.
//! * **Device level** — what the compiler produces: explicit thread/block
//!   builtins, global/texture/constant/shared memory operations and
//!   barriers. The functional simulator executes this level.
//!
//! [`typecheck`] enforces well-formedness and can restrict a kernel to one
//! level; [`access`] implements the paper's read/write analysis over a
//! [`cfg`](mod@cfg); [`fold`] and [`unroll`] implement the Section VIII outlook
//! optimizations (constant propagation and convolution-loop unrolling);
//! [`metrics`] derives the dynamic operation counts that feed the hardware
//! model and the analytical timing model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod builder;
pub mod cfg;
pub mod display;
pub mod expr;
pub mod fold;
pub mod fuse;
pub mod kernel;
pub mod key;
pub mod metrics;
pub mod opt;
pub mod stmt;
pub mod ty;
pub mod typecheck;
pub mod unroll;

pub use builder::KernelBuilder;
pub use expr::{BinOp, Builtin, Expr, MathFn, TexCoords, UnOp};
pub use fuse::{FuseError, FusedStage, FusionChain};
pub use kernel::{AccessorDecl, KernelDef, MaskDecl, ParamDecl};
pub use stmt::{LValue, Stmt};
pub use ty::{Const, ScalarType};
