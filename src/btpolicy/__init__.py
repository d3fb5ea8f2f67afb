"""Reactive behavior-tree policies from natural-language instructions.

The pipeline: a completion backend interprets an instruction into goal
conditions, a backchaining planner expands them into a reactive tree, a
deterministic simulator executes the tree with fault injection, and the
resolver patches missing preconditions or parameters into the policy when
actions fail, permanently.
"""

from .bt import (BehaviorTree, NodeKind, NodeStatus, TickContext, TickTrace,
                 TreeNode, insert_preconditions, parse,
                 serialize, tick, to_dot, tree_equal)
from .domain import (Domain, Predicate, SkillTemplate, Slot, WorldState,
                     load_domain, make_state)
from .planner import GoalSpec, PlanConfig, expand_condition, init_tree, plan
from .llm import (LlmExchange, ParamValue, PromptSpec, Role, build_prompt,
                  parse_goal_response, parse_param_response,
                  parse_precondition_response)
from .backends import (Backend, OracleBackend, RemoteBackend, RequestMeta,
                       ScriptedBackend)
from .sim import (ExecutionTrace, FailureEvent, FaultRule, Scenario, execute,
                  load_scenario, load_scenarios)
from .resolver import (Outcome, ParamRequest, PipelineResult, ResolveConfig,
                       ResolutionRecord, resolve, resolve_parameter,
                       resolve_until_success)
from .verify import VerificationReport, verify_tree
from .terms import ANY_OBJECT, GroundAction, Literal, ObjectRef, Quantity

__all__ = [name for name in dir() if not name.startswith("_")]
