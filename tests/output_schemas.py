"""The JSON Schemas (draft 2020-12) of the CLI's ``--out`` payloads, one
per subcommand in :data:`OUTPUT_SCHEMAS`; the CLI tests validate every
payload they write against them."""

_NUMBER = {"type": "number"}
_VECTOR = {"type": "array", "items": _NUMBER}
_POINT_WITNESS = {
    "type": "object",
    "properties": {"x": _VECTOR, "u": _VECTOR},
    "required": ["x", "u"],
}
_PAIR_WITNESS = {
    "type": "object",
    "properties": {"x1": _VECTOR, "x2": _VECTOR, "u": _VECTOR},
    "required": ["x1", "x2", "u"],
}
_CONFIG = {
    "type": "object",
    "properties": {
        "grid_per_axis": {"type": "integer"},
        "pair_budget": {"type": "integer"},
        "seed": {"type": "integer"},
        "polish_iters": {"type": "integer"},
    },
    "required": ["grid_per_axis", "pair_budget", "seed", "polish_iters"],
}
_CONSTANTS = {
    "type": "object",
    "properties": {
        "gamma_c": _NUMBER,
        "rho_c": _NUMBER,
        "beta": _NUMBER,
        "big_m": _NUMBER,
        "sigma_bar_a": _NUMBER,
        "witnesses": {
            "type": "object",
            "properties": {
                "gamma_c": _POINT_WITNESS,
                "rho_c": _PAIR_WITNESS,
                "beta": _POINT_WITNESS,
                "big_m": _POINT_WITNESS,
            },
        },
        "sample_budget": _CONFIG,
    },
    "required": ["gamma_c", "rho_c", "beta", "big_m", "sigma_bar_a", "witnesses"],
}
_TOOL = {
    "type": "object",
    "properties": {"name": {"type": "string"}, "version": {"type": "string"}},
    "required": ["name", "version"],
}
_NULLABLE_NUMBER = {"type": ["number", "null"]}

CONSTANTS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "tool": _TOOL,
        "system": {"type": "string"},
        "constants": _CONSTANTS,
        "config": {"type": "object"},
        "timestamp": {"type": "string"},
    },
    "required": ["tool", "system", "constants", "config"],
}

BOUNDS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "tool": _TOOL,
        "system": {"type": "string"},
        "constants": _CONSTANTS,
        "bounds": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "order": {"type": "integer"},
                    "T": _NUMBER,
                    "gamma_d": _NUMBER,
                    "rho_d": _NULLABLE_NUMBER,
                },
                "required": ["order", "T", "gamma_d", "rho_d"],
            },
        },
        "config": {"type": "object"},
    },
    "required": ["tool", "system", "constants", "bounds", "config"],
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "tool": _TOOL,
        "system": {"type": "string"},
        "order": {"type": "integer"},
        "T": _NUMBER,
        "constants": _CONSTANTS,
        "bounds": {
            "type": "object",
            "properties": {"gamma_d": _NUMBER, "rho_d": _NULLABLE_NUMBER},
            "required": ["gamma_d", "rho_d"],
        },
        "empirical": {
            "type": "object",
            "properties": {
                "gamma_d": {
                    "type": "object",
                    "properties": {"value": _NUMBER, "witness": _PAIR_WITNESS},
                    "required": ["value", "witness"],
                },
                "rho_d": {
                    "type": "object",
                    "properties": {"value": _NUMBER, "witness": _PAIR_WITNESS},
                    "required": ["value", "witness"],
                },
                "full_map_gamma_d": _NUMBER,
            },
            "required": ["gamma_d", "rho_d", "full_map_gamma_d"],
        },
        "margins": {
            "type": "object",
            "properties": {"gamma_d": _NUMBER, "rho_d": _NULLABLE_NUMBER},
            "required": ["gamma_d", "rho_d"],
        },
        "tolerances": {"type": "object"},
        "passed": {
            "type": "object",
            "properties": {
                "gamma_d": {"type": "boolean"},
                "rho_d": {"type": ["boolean", "null"]},
                "all": {"type": "boolean"},
            },
            "required": ["gamma_d", "rho_d", "all"],
        },
        "config": {"type": "object"},
        "timestamp": {"type": "string"},
    },
    "required": [
        "tool",
        "system",
        "order",
        "T",
        "constants",
        "bounds",
        "empirical",
        "margins",
        "passed",
        "config",
        "timestamp",
    ],
}

TRAJECTORY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "tool": _TOOL,
        "system": {"type": "string"},
        "order": {"type": "integer"},
        "T": _NUMBER,
        "states": {"type": "array", "items": _VECTOR},
        "outputs": {"type": "array", "items": _VECTOR},
        "first_exit": {"type": ["integer", "null"]},
        "exact_states": {"type": "array", "items": _VECTOR},
        "errors": _VECTOR,
        "config": {"type": "object"},
    },
    "required": ["tool", "system", "order", "T", "states", "outputs", "first_exit"],
}

CONVERGENCE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "tool": _TOOL,
        "system": {"type": "string"},
        "t_values": _VECTOR,
        "orders": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "properties": {
                    "max_local_errors": _VECTOR,
                    "slope": _NUMBER,
                },
                "required": ["max_local_errors", "slope"],
            },
        },
        "config": {"type": "object"},
    },
    "required": ["tool", "system", "t_values", "orders", "config"],
}

OUTPUT_SCHEMAS = {
    "constants": CONSTANTS_SCHEMA,
    "bounds": BOUNDS_SCHEMA,
    "verify": REPORT_SCHEMA,
    "discretize": TRAJECTORY_SCHEMA,
    "convergence": CONVERGENCE_SCHEMA,
}
