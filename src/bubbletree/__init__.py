"""Event-tree pricing of assets and contingent claims under model
uncertainty with short-sale prohibitions."""

from .ambiguity import (
    Classification,
    ExplicitFamily,
    MeasureFamily,
    PolarNodeError,
    RectangularFamily,
    TransitionSet,
    check_absolute_continuity,
    check_full_support,
    classify_process,
    cond_expectation,
    expectation_sweep,
    validate_family,
)
from .bubble import (
    BubbleReport,
    analyze_bubble,
    bubble_exists,
    bubble_process,
    check_bubble_properties,
    classify_bubble,
    find_dominating_strategy,
    fundamental_price,
    fundamental_wealth,
    stopped_price_process,
)
from .claims import (
    AssumptionViolationError,
    Claim,
    american_bounds,
    american_fundamental_price,
    claim_bubbles,
    fundamental_claim_price,
    market_parity,
    parity_bounds,
)
from .lattice import (
    AdaptedProcess,
    EventTree,
    InvalidMarketError,
    MarketSpec,
    ShortSaleViolationError,
    StoppingTime,
    Strategy,
    ValidationReport,
    discount_factors,
    gains_process,
    validate_market,
    wealth_process,
)
from .noarb import (
    ArbitrageCertificate,
    FtapReport,
    HedgeSolution,
    NotRiskNeutralError,
    UnboundedHedgeError,
    find_arbitrage,
    robust_price,
    superhedge,
    supermartingale_family,
    verify_ftap,
)

__version__ = "0.1.0"
