#include "query/plan.h"

namespace ongoingdb {

namespace {
std::string Indent(int n) { return std::string(static_cast<size_t>(n) * 2, ' '); }
}  // namespace

std::string ScanNode::ToString(int indent) const {
  return Indent(indent) + "Scan(" + name_ + ", " +
         std::to_string(relation_->size()) + " tuples)";
}

std::string FilterNode::ToString(int indent) const {
  return Indent(indent) + "Filter " + predicate_->ToString() +
         "\n" + child_->ToString(indent + 1);
}

std::string ProjectNode::ToString(int indent) const {
  std::string cols;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) cols += ", ";
    cols += names_[i];
  }
  return Indent(indent) + "Project [" + cols + "]\n" +
         child_->ToString(indent + 1);
}

std::string JoinNode::ToString(int indent) const {
  const char* algo = "auto";
  switch (algorithm_) {
    case JoinAlgorithm::kAuto: algo = "auto"; break;
    case JoinAlgorithm::kNestedLoop: algo = "nested-loop"; break;
    case JoinAlgorithm::kHash: algo = "hash"; break;
    case JoinAlgorithm::kIndexNL: algo = "index-nl"; break;
  }
  return Indent(indent) + "Join[" + algo + "] " + predicate_->ToString() +
         "\n" + left_->ToString(indent + 1) + "\n" +
         right_->ToString(indent + 1);
}

PlanPtr Scan(const OngoingRelation* relation, std::string name) {
  return std::make_shared<ScanNode>(relation, std::move(name));
}

PlanPtr Filter(PlanPtr child, ExprPtr predicate) {
  return std::make_shared<FilterNode>(std::move(child), std::move(predicate));
}

PlanPtr ProjectPlan(PlanPtr child, std::vector<std::string> names) {
  return std::make_shared<ProjectNode>(std::move(child), std::move(names));
}

PlanPtr Join(PlanPtr left, PlanPtr right, ExprPtr predicate,
             std::string left_prefix, std::string right_prefix,
             JoinAlgorithm algorithm) {
  return std::make_shared<JoinNode>(std::move(left), std::move(right),
                                    std::move(predicate),
                                    std::move(left_prefix),
                                    std::move(right_prefix), algorithm);
}

}  // namespace ongoingdb
