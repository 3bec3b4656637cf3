//! Equilibrium solvers for **TradeFL** (ICDCS 2023): the centralized
//! CGBD algorithm (Algorithm 1), the distributed best-response
//! algorithm DBR (Algorithm 2), and the comparison baselines of §VI
//! (WPR, GCA, FIP, TOS).
//!
//! # Quick start
//!
//! ```
//! use tradefl_core::accuracy::SqrtAccuracy;
//! use tradefl_core::config::MarketConfig;
//! use tradefl_core::game::CoopetitionGame;
//! use tradefl_solver::dbr::DbrSolver;
//!
//! let market = MarketConfig::table_ii().build(42)?;
//! let game = CoopetitionGame::new(market, SqrtAccuracy::paper_default());
//! let equilibrium = DbrSolver::new().solve(&game)?;
//! assert!(equilibrium.converged);
//! println!("social welfare at NE: {:.1}", equilibrium.welfare);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Modules
//!
//! * [`primal`] — the convex primal problem (19), its interior-point
//!   solver and the feasibility check (21);
//! * [`gbd`] — Benders cuts (Eqs. 20/22) and the master problem (23);
//! * [`cgbd`] — Algorithm 1 plus the brute-force optimality oracle;
//! * [`bestresponse`] — single-organization best responses (Def. 9);
//! * [`dbr`] — Algorithm 2;
//! * [`baselines`] — GCA, FIP, TOS and the scheme dispatcher, which
//!   also runs WPR as DBR on the γ = 0 market;
//! * [`social`] — the centralized welfare optimum and price of anarchy;
//! * [`outcome`] — equilibrium metrics and iteration traces;
//! * [`error`] — solver errors.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod bestresponse;
pub mod certify;
pub mod cgbd;
pub mod dbr;
pub mod error;
pub mod gbd;
pub mod outcome;
pub mod primal;
pub mod social;
pub mod tuning;

pub use baselines::{solve_fip, solve_gca, solve_scheme, solve_tos};
pub use bestresponse::{best_response, best_response_incremental, BestResponse};
pub use certify::{certify_nash, NashCertificate};
pub use cgbd::{exhaustive_optimum, CgbdOptions, CgbdReport, CgbdSolver};
pub use dbr::{DbrOptions, DbrSolver, UpdateOrder};
pub use error::SolveError;
pub use gbd::{Cut, MasterSearch};
pub use outcome::{Equilibrium, Scheme};
pub use primal::{FeasibilityOutcome, PrimalProblem, PrimalSolution};
pub use social::{solve_social_optimum, SocialOptimum, SocialOptions};
pub use tuning::{tune_gamma, TuneOptions, TuneReport, TuneSample};
