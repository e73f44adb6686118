// Logical query plans over ongoing relations. Plans are built by the
// examples and benchmarks, optionally rewritten by the optimizer
// (optimizer.h), and evaluated by the executor (executor.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "relation/relation.h"

namespace ongoingdb {

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// Physical join algorithm selection.
enum class JoinAlgorithm {
  kAuto,        ///< let the optimizer pick (cost-based once an
                ///< index-eligible temporal conjunct exists; see
                ///< ResolveAutoJoinAlgorithm in query/optimizer.h)
  kNestedLoop,  ///< generic theta join
  kHash,        ///< linear-time build/probe on fixed equality conjuncts
  kIndexNL,     ///< index-nested-loop: probe an IntervalIndex on the
                ///< inner (right) base relation with each outer tuple's
                ///< interval bounds; Compile fails if no eligible
                ///< overlaps/before/meets conjunct exists
};

/// Logical plan node kinds.
enum class PlanKind { kScan, kFilter, kProject, kJoin };

/// An immutable logical plan node.
class PlanNode {
 public:
  virtual ~PlanNode() = default;
  PlanKind kind() const { return kind_; }
  virtual std::string ToString(int indent = 0) const = 0;

 protected:
  explicit PlanNode(PlanKind kind) : kind_(kind) {}

 private:
  PlanKind kind_;
};

/// Leaf scan of a base ongoing relation. The relation is borrowed; the
/// caller keeps it alive for the lifetime of the plan.
class ScanNode final : public PlanNode {
 public:
  ScanNode(const OngoingRelation* relation, std::string name)
      : PlanNode(PlanKind::kScan), relation_(relation), name_(std::move(name)) {}

  const OngoingRelation& relation() const { return *relation_; }
  const std::string& name() const { return name_; }
  std::string ToString(int indent) const override;

 private:
  const OngoingRelation* relation_;
  std::string name_;
};

/// Selection sigma_theta(child).
class FilterNode final : public PlanNode {
 public:
  FilterNode(PlanPtr child, ExprPtr predicate)
      : PlanNode(PlanKind::kFilter),
        child_(std::move(child)),
        predicate_(std::move(predicate)) {}

  const PlanPtr& child() const { return child_; }
  const ExprPtr& predicate() const { return predicate_; }
  std::string ToString(int indent) const override;

 private:
  PlanPtr child_;
  ExprPtr predicate_;
};

/// Projection pi_names(child).
class ProjectNode final : public PlanNode {
 public:
  ProjectNode(PlanPtr child, std::vector<std::string> names)
      : PlanNode(PlanKind::kProject),
        child_(std::move(child)),
        names_(std::move(names)) {}

  const PlanPtr& child() const { return child_; }
  const std::vector<std::string>& names() const { return names_; }
  std::string ToString(int indent) const override;

 private:
  PlanPtr child_;
  std::vector<std::string> names_;
};

/// Theta join left |x|_theta right.
class JoinNode final : public PlanNode {
 public:
  JoinNode(PlanPtr left, PlanPtr right, ExprPtr predicate,
           std::string left_prefix, std::string right_prefix,
           JoinAlgorithm algorithm = JoinAlgorithm::kAuto)
      : PlanNode(PlanKind::kJoin),
        left_(std::move(left)),
        right_(std::move(right)),
        predicate_(std::move(predicate)),
        left_prefix_(std::move(left_prefix)),
        right_prefix_(std::move(right_prefix)),
        algorithm_(algorithm) {}

  const PlanPtr& left() const { return left_; }
  const PlanPtr& right() const { return right_; }
  const ExprPtr& predicate() const { return predicate_; }
  const std::string& left_prefix() const { return left_prefix_; }
  const std::string& right_prefix() const { return right_prefix_; }
  JoinAlgorithm algorithm() const { return algorithm_; }
  std::string ToString(int indent) const override;

 private:
  PlanPtr left_, right_;
  ExprPtr predicate_;
  std::string left_prefix_, right_prefix_;
  JoinAlgorithm algorithm_;
};

// Builders.
PlanPtr Scan(const OngoingRelation* relation, std::string name);
PlanPtr Filter(PlanPtr child, ExprPtr predicate);
PlanPtr ProjectPlan(PlanPtr child, std::vector<std::string> names);
PlanPtr Join(PlanPtr left, PlanPtr right, ExprPtr predicate,
             std::string left_prefix, std::string right_prefix,
             JoinAlgorithm algorithm = JoinAlgorithm::kAuto);

}  // namespace ongoingdb
